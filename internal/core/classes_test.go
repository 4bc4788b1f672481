package core

import (
	"slices"
	"testing"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// indexRows appends every row of a to a fresh index under the given
// budgets and checks it against a fresh grouping.
func indexRows(tb testing.TB, a *Alloc, budgets []int) *Classes {
	tb.Helper()
	cs := newClasses(a.Channels())
	for i, k := range budgets {
		cs.Append(k, a.m[i])
	}
	if err := cs.check(a, budgets); err != nil {
		tb.Fatal(err)
	}
	return cs
}

// classAlloc builds a users×channels allocation whose user i deploys
// 1 + i%maxBudget radios on seeded random channels.
func classAlloc(tb testing.TB, users, channels, maxBudget int, seed uint64) *Alloc {
	tb.Helper()
	a, err := NewAlloc(users, channels)
	if err != nil {
		tb.Fatal(err)
	}
	rng := des.NewRNG(seed)
	for i := 0; i < users; i++ {
		for r := 0; r <= i%maxBudget; r++ {
			if err := a.Add(i, rng.Intn(channels), 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return a
}

// BenchmarkClassesSet times re-interning one user back and forth between
// two existing classes of a 1024-user, 16-channel index: the cost a move
// adds to the sweep.
func BenchmarkClassesSet(b *testing.B) {
	a := classAlloc(b, 1024, 16, 4, 1)
	budgets := make([]int, a.Users())
	for i := range budgets {
		budgets[i] = 1 + i%4
	}
	cs := indexRows(b, a, budgets)
	// Users 0 and 4 both have budget 1; user 0 alternates between its
	// own row and user 4's, both of which keep another member.
	cs.Append(budgets[0], a.m[0])
	rows := [2][]int{a.Row(4), a.Row(0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs.Set(0, 1, rows[i%2])
	}
	b.ReportMetric(float64(len(cs.ids)), "classes")
}

// TestClassesGroupExactPairs pins the grouping: users share a class iff
// budget and row agree entry by entry, fresh ids are dense in first-
// occurrence order, and each class stores its budget, row and count. A
// game-built index agrees with the appended one.
func TestClassesGroupExactPairs(t *testing.T) {
	a, err := AllocFromMatrix([][]int{
		{1, 0, 1}, // 0: class 0 (budget 2)
		{1, 0, 1}, // 1: 0
		{1, 0, 1}, // 2: same row, budget 3 -> class 1
		{0, 1, 1}, // 3: class 2
		{1, 0, 1}, // 4: 0
		{0, 1, 1}, // 5: 2
	})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{2, 2, 3, 2, 2, 2}
	g, err := NewHeteroGame(3, budgets, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 2, 0, 2}
	for _, cs := range []*Classes{indexRows(t, a, budgets), NewClasses(g, a)} {
		for i, c := range want {
			if got := cs.Of(i); got != c {
				t.Fatalf("user %d in class %d, want %d", i, got, c)
			}
		}
		if len(cs.ids) != 3 || cs.Size() != 3 || len(cs.classOf) != 6 {
			t.Fatalf("%d classes, size %d, %d users; want 3, 3, 6", len(cs.ids), cs.Size(), len(cs.classOf))
		}
		for c, w := range []struct {
			budget, count int
			row           []int
		}{{2, 3, []int{1, 0, 1}}, {3, 1, []int{1, 0, 1}}, {2, 2, []int{0, 1, 1}}} {
			if cs.budget[c] != w.budget || cs.Count(c) != w.count || !slices.Equal(cs.Row(c), w.row) {
				t.Fatalf("class %d: budget %d, count %d, row %v; want %d, %d, %v",
					c, cs.budget[c], cs.Count(c), cs.Row(c), w.budget, w.count, w.row)
			}
		}
		if err := cs.check(a, budgets); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClassesBudgetSplitsRow pins that one row under different budgets
// makes different classes, and that Set moves a user between them when
// only its budget changes.
func TestClassesBudgetSplitsRow(t *testing.T) {
	a, err := AllocFromMatrix([][]int{{1, 1, 0}, {1, 1, 0}, {1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{2, 3, 2}
	cs := indexRows(t, a, budgets)
	if len(cs.ids) != 2 || cs.Of(0) != cs.Of(2) || cs.Of(0) == cs.Of(1) {
		t.Fatalf("classes %d %d %d (%d live), want budget 3 alone", cs.Of(0), cs.Of(1), cs.Of(2), len(cs.ids))
	}
	budgets[2] = 3
	if c := cs.Set(2, 3, a.m[2]); c != cs.Of(1) {
		t.Fatalf("budget change put user 2 in class %d, want user 1's %d", c, cs.Of(1))
	}
	if err := cs.check(a, budgets); err != nil {
		t.Fatal(err)
	}
}

// TestClassesLargeEntries pins that radio counts and budgets of any size
// key the index exactly: rows and budgets that agree modulo 256 (or share
// varint bytes in another order) stay distinct.
func TestClassesLargeEntries(t *testing.T) {
	a, err := AllocFromMatrix([][]int{
		{300, 4},
		{44, 260},
		{300, 4},
		{44, 4},
		{300, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{304, 304, 304, 304, 304 + 256}
	cs := indexRows(t, a, budgets)
	for i, want := range []int{0, 1, 0, 2, 3} {
		if got := cs.Of(i); got != want {
			t.Fatalf("user %d in class %d, want %d", i, got, want)
		}
	}
}

// TestClassesRemoveSwapFreesID pins departures: the last user moves into
// the hole, removing a class's last member frees its id, the next new
// class reuses that id without growing the table, and a free id never
// answers a lookup.
func TestClassesRemoveSwapFreesID(t *testing.T) {
	a, err := AllocFromMatrix([][]int{{1, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1, 1, 1}
	cs := indexRows(t, a, budgets)
	freed := cs.Of(1)

	if err := a.RemoveRowSwap(1); err != nil {
		t.Fatal(err)
	}
	cs.RemoveSwap(1)
	budgets = budgets[:2]
	if err := cs.check(a, budgets); err != nil {
		t.Fatal(err)
	}
	if len(cs.ids) != 1 || cs.Count(freed) != 0 || cs.Of(1) != cs.Of(0) {
		t.Fatalf("after leave: %d classes, freed count %d, users in %d and %d",
			len(cs.ids), cs.Count(freed), cs.Of(0), cs.Of(1))
	}

	// A re-join with the departed row gets a class of its own again, on
	// the freed id.
	i := a.AppendRow()
	if err := a.SetRow(i, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	budgets = append(budgets, 1)
	if c := cs.Append(1, a.m[i]); c != freed || cs.Size() != 2 {
		t.Fatalf("new class on id %d with table size %d, want freed id %d and size 2", c, cs.Size(), freed)
	}
	if err := cs.check(a, budgets); err != nil {
		t.Fatal(err)
	}

	// Emptying every class leaves an index of free ids only.
	for len(cs.classOf) > 0 {
		last := len(cs.classOf) - 1
		if err := a.RemoveRowSwap(last); err != nil {
			t.Fatal(err)
		}
		cs.RemoveSwap(last)
		budgets = budgets[:last]
	}
	if err := cs.check(nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(cs.ids) != 0 || cs.Size() != 2 {
		t.Fatalf("empty index: %d classes, size %d; want 0 and 2", len(cs.ids), cs.Size())
	}
}

// TestClassesRandomEdits drives an index through seeded joins, leaves and
// row or budget edits on a few channels, so that classes empty, ids are
// reused and rows collide often, and checks it against a fresh grouping
// after every edit. The table never outgrows the largest population.
func TestClassesRandomEdits(t *testing.T) {
	const channels, maxBudget = 3, 3
	rng := des.NewRNG(0xc1a55e5)
	a, err := NewAlloc(1, channels)
	if err != nil {
		t.Fatal(err)
	}
	cs := newClasses(channels)
	budgets := []int{1}
	cs.Append(1, a.m[0])
	randomRow := func(k int) []int {
		row := make([]int, channels)
		for r := rng.Intn(k + 1); r > 0; r-- {
			row[rng.Intn(channels)]++
		}
		return row
	}
	peak := 0
	for step := 0; step < 4000; step++ {
		n := a.Users()
		switch op := rng.Intn(3); {
		case n < 2 || op == 0 && n < 40:
			k := 1 + rng.Intn(maxBudget)
			i := a.AppendRow()
			if err := a.SetRow(i, randomRow(k)); err != nil {
				t.Fatal(err)
			}
			budgets = append(budgets, k)
			cs.Append(k, a.m[i])
		case op == 1:
			i := rng.Intn(n)
			if err := a.RemoveRowSwap(i); err != nil {
				t.Fatal(err)
			}
			budgets[i] = budgets[n-1]
			budgets = budgets[:n-1]
			cs.RemoveSwap(i)
		default:
			i := rng.Intn(n)
			budgets[i] = 1 + rng.Intn(maxBudget)
			if err := a.SetRow(i, randomRow(budgets[i])); err != nil {
				t.Fatal(err)
			}
			cs.Set(i, budgets[i], a.m[i])
		}
		peak = max(peak, a.Users())
		if err := cs.check(a, budgets); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if cs.Size() > peak {
			t.Fatalf("step %d: table size %d exceeds peak population %d", step, cs.Size(), peak)
		}
	}
}

// TestClassesCheckCatchesCorruption pins that check notices a user filed
// under the wrong class, a stale member count, and two classes holding
// the same (budget, row).
func TestClassesCheckCatchesCorruption(t *testing.T) {
	a, err := AllocFromMatrix([][]int{{1, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1, 1, 1}
	for name, corrupt := range map[string]func(cs *Classes){
		"wrong class": func(cs *Classes) { cs.classOf[2] = cs.classOf[1] },
		"stale count": func(cs *Classes) { cs.count[0]++ },
		"split class": func(cs *Classes) {
			// User 2 gets a duplicate class of user 0's (budget, row).
			cs.count[cs.classOf[2]]--
			cs.classOf[2] = len(cs.count)
			cs.count = append(cs.count, 1)
			cs.budget = append(cs.budget, 1)
			cs.key = append(cs.key, cs.key[cs.classOf[0]])
			cs.rows = append(cs.rows, 1, 0)
		},
	} {
		cs := indexRows(t, a, budgets)
		corrupt(cs)
		if cs.check(a, budgets) == nil {
			t.Fatalf("%s: check passed a corrupt index", name)
		}
	}
}

// TestClassesInternExistingAllocsNothing pins that moving users between
// existing classes — a re-intern, a departure and a join into a class
// that keeps members — allocates nothing once the index has grown.
func TestClassesInternExistingAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a := classAlloc(t, 512, 16, 4, 2)
	budgets := make([]int, a.Users())
	for i := range budgets {
		budgets[i] = 1 + i%4
	}
	cs := indexRows(t, a, budgets)
	// Two extra members of user 0's and user 4's classes (both budget 1),
	// so neither class ever empties below.
	cs.Append(1, a.m[0])
	cs.Append(1, a.m[4])
	rowA, rowB := a.Row(0), a.Row(4)
	edit := func() {
		cs.Set(0, 1, rowB)
		cs.Set(0, 1, rowA)
		cs.Append(1, rowB)
		cs.RemoveSwap(len(cs.classOf) - 1)
	}
	edit()
	if allocs := testing.AllocsPerRun(20, edit); allocs != 0 {
		t.Fatalf("re-interning into existing classes allocates %v per run, want 0", allocs)
	}
}
