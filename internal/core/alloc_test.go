package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// figure1Matrix is the exact strategy matrix of the paper's Figures 1-2:
// |N| = 4 users, k = 4 radios, |C| = 5 channels. Loads: 4, 3, 2, 3, 1.
// Users u2 and u4 deploy fewer than k radios.
func figure1Matrix() [][]int {
	return [][]int{
		{1, 1, 1, 1, 0}, // u1 (k=4)
		{1, 0, 1, 0, 1}, // u2 (k=3)
		{1, 2, 0, 1, 0}, // u3 (k=4, two radios on c2)
		{1, 0, 0, 1, 0}, // u4 (k=2)
	}
}

func mustAlloc(t *testing.T, m [][]int) *Alloc {
	t.Helper()
	a, err := AllocFromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAllocZero(t *testing.T) {
	a, err := NewAlloc(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Users() != 3 || a.Channels() != 4 {
		t.Fatalf("dims %dx%d, want 3x4", a.Users(), a.Channels())
	}
	for i := 0; i < 3; i++ {
		for c := 0; c < 4; c++ {
			if a.Radios(i, c) != 0 {
				t.Fatalf("fresh alloc non-zero at (%d,%d)", i, c)
			}
		}
	}
	if a.TotalRadios() != 0 {
		t.Fatalf("TotalRadios = %d, want 0", a.TotalRadios())
	}
}

func TestNewAllocErrors(t *testing.T) {
	if _, err := NewAlloc(0, 1); err == nil {
		t.Error("0 users should error")
	}
	if _, err := NewAlloc(1, 0); err == nil {
		t.Error("0 channels should error")
	}
}

func TestAllocFromMatrixFigure1(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	wantLoads := []int{4, 3, 2, 3, 1}
	for c, want := range wantLoads {
		if got := a.Load(c); got != want {
			t.Errorf("load(c%d) = %d, want %d", c+1, got, want)
		}
	}
	// Totals from the paper: ku1=4, ku2=3, ku3=4, ku4=2.
	wantTotals := []int{4, 3, 4, 2}
	for i, want := range wantTotals {
		if got := a.UserTotal(i); got != want {
			t.Errorf("userTotal(u%d) = %d, want %d", i+1, got, want)
		}
	}
	if a.TotalRadios() != 13 {
		t.Errorf("TotalRadios = %d, want 13", a.TotalRadios())
	}
}

func TestAllocFromMatrixErrors(t *testing.T) {
	if _, err := AllocFromMatrix(nil); err == nil {
		t.Error("nil matrix should error")
	}
	if _, err := AllocFromMatrix([][]int{{}}); err == nil {
		t.Error("empty row should error")
	}
	if _, err := AllocFromMatrix([][]int{{1, 0}, {1}}); err == nil {
		t.Error("ragged matrix should error")
	}
	if _, err := AllocFromMatrix([][]int{{-1}}); err == nil {
		t.Error("negative entry should error")
	}
}

// TestAllocFromMatrixRejectsOverflow: a matrix whose cells sum past
// math.MaxInt is refused with the cell named, instead of carrying wrapped
// (negative) channel loads or radio totals.
func TestAllocFromMatrixRejectsOverflow(t *testing.T) {
	for _, m := range [][][]int{
		{{math.MaxInt, 0}, {1, 0}},                       // one channel load wraps
		{{math.MaxInt/2 + 1, 0}, {0, math.MaxInt/2 + 1}}, // only the total wraps
	} {
		a, err := AllocFromMatrix(m)
		if err == nil {
			t.Fatalf("%v accepted: loads %v, total %d", m, a.Loads(), a.TotalRadios())
		}
		if !strings.Contains(err.Error(), "(1, ") {
			t.Errorf("%v: error %q does not name the cell in row 1", m, err)
		}
	}
	a, err := AllocFromMatrix([][]int{{math.MaxInt - 1, 0}, {0, 1}})
	if err != nil {
		t.Fatalf("a total of exactly math.MaxInt must fit: %v", err)
	}
	if a.TotalRadios() != math.MaxInt {
		t.Fatalf("total %d, want math.MaxInt", a.TotalRadios())
	}
}

// TestSetRowAndAddRejectOverflow holds SetRow and Add to the bound
// AllocFromMatrix enforces: no change may push a channel load or the
// allocation's total past math.MaxInt, and a refused change leaves the
// allocation untouched.
func TestSetRowAndAddRejectOverflow(t *testing.T) {
	fill := func() *Alloc { // rows {{MaxInt,0,0},{0,0,0}}
		a := mustAlloc(t, [][]int{{0, 0, 0}, {0, 0, 0}})
		if err := a.SetRow(0, []int{math.MaxInt, 0, 0}); err != nil {
			t.Fatalf("a total of exactly math.MaxInt must fit: %v", err)
		}
		return a
	}
	untouched := func(a *Alloc, what string) {
		t.Helper()
		if want := [][]int{{math.MaxInt, 0, 0}, {0, 0, 0}}; !a.Equal(mustAlloc(t, want)) {
			t.Errorf("refused %s changed the matrix:\n%v", what, a.Matrix())
		}
		if loads := a.Loads(); loads[0] != math.MaxInt || loads[1] != 0 || loads[2] != 0 {
			t.Errorf("refused %s changed the loads to %v", what, loads)
		}
	}
	for _, row := range [][]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 3}} {
		a := fill()
		if err := a.SetRow(1, row); err == nil {
			t.Errorf("SetRow(1, %v) onto a total of math.MaxInt accepted: loads %v", row, a.Loads())
		}
		untouched(a, fmt.Sprintf("SetRow(1, %v)", row))
	}
	for _, c := range []int{0, 1} {
		a := fill()
		if err := a.Add(1, c, 1); err == nil {
			t.Errorf("Add(1, %d, 1) onto a total of math.MaxInt accepted: loads %v", c, a.Loads())
		}
		untouched(a, fmt.Sprintf("Add(1, %d, 1)", c))
	}
	// Replacing the full row itself, or taking radios away, still works.
	a := fill()
	if err := a.SetRow(0, []int{0, math.MaxInt, 0}); err != nil {
		t.Errorf("SetRow replacing the full row: %v", err)
	}
	if err := a.Add(0, 1, -1); err != nil {
		t.Errorf("Add(0, 1, -1): %v", err)
	}
	if err := a.Add(1, 2, 1); err != nil || a.TotalRadios() != math.MaxInt {
		t.Errorf("Add back to exactly math.MaxInt: %v, total %d", err, a.TotalRadios())
	}
}

func TestSetRowUpdatesLoads(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if err := a.SetRow(2, []int{0, 0, 1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	wantLoads := []int{3, 1, 3, 3, 3}
	for c, want := range wantLoads {
		if got := a.Load(c); got != want {
			t.Errorf("load(c%d) = %d, want %d", c+1, got, want)
		}
	}
}

func TestSetRowErrors(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if err := a.SetRow(-1, []int{0, 0, 0, 0, 0}); err == nil {
		t.Error("negative user should error")
	}
	if err := a.SetRow(9, []int{0, 0, 0, 0, 0}); err == nil {
		t.Error("out-of-range user should error")
	}
	if err := a.SetRow(0, []int{0, 0}); err == nil {
		t.Error("short row should error")
	}
	if err := a.SetRow(0, []int{0, 0, 0, 0, -2}); err == nil {
		t.Error("negative entry should error")
	}
	// A failed SetRow must leave the allocation untouched.
	if a.Load(0) != 4 {
		t.Error("failed SetRow mutated loads")
	}
}

func TestSetRowCopiesInput(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	row := []int{1, 0, 0, 0, 0}
	if err := a.SetRow(0, row); err != nil {
		t.Fatal(err)
	}
	row[0] = 99
	if a.Radios(0, 0) != 1 {
		t.Fatal("SetRow aliased caller slice")
	}
}

func TestAddAndMove(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if err := a.Add(3, 4, 1); err != nil {
		t.Fatal(err)
	}
	if a.Radios(3, 4) != 1 || a.Load(4) != 2 {
		t.Fatalf("Add failed: radios=%d load=%d", a.Radios(3, 4), a.Load(4))
	}
	if err := a.Move(3, 4, 2); err != nil {
		t.Fatal(err)
	}
	if a.Radios(3, 4) != 0 || a.Radios(3, 2) != 1 {
		t.Fatal("Move did not relocate the radio")
	}
	if a.Load(4) != 1 || a.Load(2) != 3 {
		t.Fatalf("Move loads wrong: c5=%d c3=%d", a.Load(4), a.Load(2))
	}
}

func TestAddErrors(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if err := a.Add(-1, 0, 1); err == nil {
		t.Error("bad user should error")
	}
	if err := a.Add(0, -1, 1); err == nil {
		t.Error("bad channel should error")
	}
	if err := a.Add(0, 4, -1); err == nil {
		t.Error("going negative should error")
	}
}

func TestMoveErrors(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if err := a.Move(0, 2, 2); err == nil {
		t.Error("self-move should error")
	}
	if err := a.Move(0, 4, 0); err == nil {
		t.Error("moving a radio the user does not have should error")
	}
	// u1 has no radio on c5 (index 4); the failed move must not corrupt state.
	if a.Load(4) != 1 || a.Load(0) != 4 {
		t.Error("failed move corrupted loads")
	}
}

func TestMoveRollbackOnBadTarget(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if err := a.Move(0, 0, 99); err == nil {
		t.Fatal("move to invalid channel should error")
	}
	if a.Radios(0, 0) != 1 || a.Load(0) != 4 {
		t.Fatal("failed move did not roll back the source")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs from original")
	}
	if err := b.Add(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("mutating clone affected original comparison")
	}
	if a.Radios(0, 4) != 0 {
		t.Fatal("clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if a.Equal(nil) {
		t.Error("Equal(nil) should be false")
	}
	small, err := NewAlloc(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(small) {
		t.Error("different dims should not be equal")
	}
}

func TestMatrixDeepCopy(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	m := a.Matrix()
	m[0][0] = 99
	if a.Radios(0, 0) == 99 {
		t.Fatal("Matrix returned aliased storage")
	}
}

func TestMinMaxLoad(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	if load, c := a.MaxLoad(); load != 4 || c != 0 {
		t.Errorf("MaxLoad = (%d, %d), want (4, 0)", load, c)
	}
	if load, c := a.MinLoad(); load != 1 || c != 4 {
		t.Errorf("MinLoad = (%d, %d), want (1, 4)", load, c)
	}
}

func TestChannelSetsFigure1(t *testing.T) {
	// Paper §3: "In Figure 1, Cmax = {c1}, Cmin = {c5} and Crem = {c2, c3, c4}."
	a := mustAlloc(t, figure1Matrix())
	cmax, cmin, crem := a.ChannelSets()
	if len(cmax) != 1 || cmax[0] != 0 {
		t.Errorf("Cmax = %v, want [0]", cmax)
	}
	if len(cmin) != 1 || cmin[0] != 4 {
		t.Errorf("Cmin = %v, want [4]", cmin)
	}
	if len(crem) != 3 || crem[0] != 1 || crem[1] != 2 || crem[2] != 3 {
		t.Errorf("Crem = %v, want [1 2 3]", crem)
	}
}

func TestChannelSetsFlat(t *testing.T) {
	a := mustAlloc(t, [][]int{
		{1, 1, 0},
		{0, 0, 2},
		{1, 1, 0},
	})
	cmax, cmin, crem := a.ChannelSets()
	if len(cmax) != 3 || len(cmin) != 3 {
		t.Errorf("flat allocation: Cmax=%v Cmin=%v, want all channels in both", cmax, cmin)
	}
	if len(crem) != 0 {
		t.Errorf("flat allocation: Crem=%v, want empty", crem)
	}
}

func TestLoadsCopy(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	loads := a.Loads()
	loads[0] = 99
	if a.Load(0) == 99 {
		t.Fatal("Loads returned aliased storage")
	}
}

func TestRowCopy(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	row := a.Row(0)
	row[0] = 99
	if a.Radios(0, 0) == 99 {
		t.Fatal("Row returned aliased storage")
	}
}

func TestStringRendering(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	s := a.String()
	if !strings.Contains(s, "u1") || !strings.Contains(s, "c5") || !strings.Contains(s, "load") {
		t.Fatalf("rendering missing expected labels:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	if len(lines) != 6 { // header + 4 users + load row
		t.Fatalf("rendering has %d lines, want 6:\n%s", len(lines), s)
	}
}
