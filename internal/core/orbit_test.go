package core

import (
	"fmt"
	"testing"

	"github.com/multiradio/chanalloc/internal/combin"
)

// testRowTables materialises per-budget strategy-row tables over channels,
// shared between equal budgets (the OrbitEnumerator contract).
func testRowTables(t *testing.T, channels int, budgets []int) func(u int) [][]int {
	t.Helper()
	byBudget := map[int][][]int{}
	for _, k := range budgets {
		if byBudget[k] != nil {
			continue
		}
		var rows [][]int
		for total := 0; total <= k; total++ {
			err := combin.Compositions(total, channels, func(row []int) bool {
				rows = append(rows, append([]int(nil), row...))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		byBudget[k] = rows
	}
	return func(u int) [][]int { return byBudget[budgets[u]] }
}

// TestOrbitSizesSumToFullProfileCount walks the canonical space of small
// uniform and mixed-budget games (N <= 4, C <= 3) and checks the partition
// property: every visited vector is canonical, the walk is strictly
// lexicographic, the visit count matches CanonicalCount, and orbit sizes
// sum to the full unreduced profile count Π_u |rows_u| — i.e. the orbits
// tile the whole grid with no overlap and no gap.
func TestOrbitSizesSumToFullProfileCount(t *testing.T) {
	cases := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{1, 1}},
		{3, []int{1, 1, 1}},
		{3, []int{2, 2, 1}},
		{2, []int{1, 2, 1}}, // class {0, 2} is non-contiguous
		{3, []int{1, 2, 3}}, // all classes singletons: no reduction
		{3, []int{2, 1, 2, 1}},
		{3, []int{2, 2, 2, 2}},
	}
	for _, tc := range cases {
		rowsFor := testRowTables(t, tc.channels, tc.budgets)
		users := len(tc.budgets)
		pred := orbitPred(tc.budgets)
		classes := orbitClasses(pred)
		sizes := make([]int, users)
		full := int64(1)
		for u := range sizes {
			sizes[u] = len(rowsFor(u))
			full *= int64(sizes[u])
		}
		a, err := NewAlloc(users, tc.channels)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, users)
		prev := make([]int, 0, users)
		var visited, orbitSum int64
		err = orbitWalk(a, idx, 0, sizes, pred,
			func(u, ri int) []int { return rowsFor(u)[ri] }, nil, nil,
			func() bool {
				for u, ri := range idx {
					if p := pred[u]; p >= 0 && idx[p] > ri {
						t.Fatalf("budgets %v: non-canonical vector %v at step %d", tc.budgets, idx, visited)
					}
				}
				if len(prev) > 0 {
					less := false
					for u := range idx {
						if prev[u] != idx[u] {
							less = prev[u] < idx[u]
							break
						}
					}
					if !less {
						t.Fatalf("budgets %v: walk not strictly lexicographic: %v then %v", tc.budgets, prev, idx)
					}
				}
				prev = append(prev[:0], idx...)
				visited++
				orbit, err := orbitSizeOf(idx, classes)
				if err != nil {
					t.Fatal(err)
				}
				orbitSum += orbit
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		oe := &OrbitEnumerator{Channels: tc.channels, Budgets: tc.budgets, RowsFor: rowsFor}
		want, err := oe.CanonicalCount()
		if err != nil {
			t.Fatal(err)
		}
		if visited != want {
			t.Errorf("budgets %v: walk visited %d canonical profiles, CanonicalCount says %d", tc.budgets, visited, want)
		}
		if orbitSum != full {
			t.Errorf("budgets %v: orbit sizes sum to %d, full grid has %d profiles", tc.budgets, orbitSum, full)
		}
	}
}

// TestCanonicalNEMatchesUnreduced cross-checks the reduced enumeration
// against the pre-refactor reference across every rate family (including
// Table and MonotoneEnvelope): the expanded canonical output must equal
// the unreduced enumeration allocation for allocation, in order, and the
// orbit sizes must sum to the unreduced equilibrium count. Uniform games
// have one exchangeability class.
func TestCanonicalNEMatchesUnreduced(t *testing.T) {
	dims := []struct{ users, channels, radios int }{
		{3, 3, 2},
		{4, 3, 1},
		{4, 2, 2},
		{2, 3, 3},
	}
	for _, rate := range differentialRates(t) {
		for _, d := range dims {
			checkCanonicalNEMatchesUnreduced(t, mustGame(t, d.users, d.channels, d.radios, rate))
		}
	}
}

// TestHeteroCanonicalMatchesUnreduced is TestCanonicalNEMatchesUnreduced
// on mixed-budget games, which exercise contiguous, interleaved and
// singleton exchangeability classes.
func TestHeteroCanonicalMatchesUnreduced(t *testing.T) {
	mixed := []struct {
		channels int
		budgets  []int
	}{
		{3, []int{2, 2, 1}},
		{2, []int{1, 2, 1}}, // exchangeable users 0 and 2 straddle user 1
		{3, []int{1, 2, 3}}, // no two users exchangeable
		{3, []int{2, 1, 2, 1}},
	}
	for _, rate := range differentialRates(t) {
		for _, m := range mixed {
			checkCanonicalNEMatchesUnreduced(t, mustHetero(t, m.channels, m.budgets, rate))
		}
	}
}

func checkCanonicalNEMatchesUnreduced(t *testing.T, g *Game) {
	t.Helper()
	label := fmt.Sprintf("%s C=%d budgets %v", g.Rate().Name(), g.Channels(), g.Budgets())
	want := referenceEnumerateNE(t, g, 2_000_000)
	reps, err := EnumerateNECanonical(g, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var orbitSum int64
	for _, rep := range reps {
		orbitSum += rep.Orbit
	}
	if orbitSum != int64(len(want)) {
		t.Fatalf("%s: orbit sizes sum to %d, unreduced enumeration has %d equilibria",
			label, orbitSum, len(want))
	}
	got, err := ExpandNEOrbits(g, reps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: expanded %d equilibria, reference found %d", label, len(got), len(want))
	}
	for j := range got {
		if !got[j].Equal(want[j]) {
			t.Fatalf("%s: equilibrium %d differs from reference order\ngot:\n%v\nwant:\n%v",
				label, j, got[j], want[j])
		}
	}
}

// TestIncrementalScreenMatchesScreenedNE drives ScreenedNEIncremental
// through a canonical walk and re-checks every profile with the plain
// (stateless) oracle on the same allocation: verdicts must agree exactly,
// in both directions, at every step — the cache may only change cost.
func TestIncrementalScreenMatchesScreenedNE(t *testing.T) {
	budgets := []int{1, 2, 2, 3}
	const channels = 3
	for _, rate := range differentialRates(t) {
		total := 0
		maxB := 0
		for _, k := range budgets {
			total += k
			if k > maxB {
				maxB = k
			}
		}
		view := NewRateView(rate, total, maxB)
		rowsFor := testRowTables(t, channels, budgets)
		users := len(budgets)
		pred := orbitPred(budgets)
		sizes := make([]int, users)
		for u := range sizes {
			sizes[u] = len(rowsFor(u))
		}
		a, err := NewAlloc(users, channels)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, users)
		ws := NewWorkspace()
		ws.ResetScreenCache(users, channels)
		plain := NewWorkspace()
		err = orbitWalk(a, idx, 0, sizes, pred,
			func(u, ri int) []int { return rowsFor(u)[ri] },
			ws.ScreenStep,
			func(u, oldRi, newRi int) {
				ws.MarkRowChanged(u)
				newRow := rowsFor(u)[newRi]
				if oldRi < 0 {
					for c, v := range newRow {
						if v != 0 {
							ws.MarkLoadChanged(c)
						}
					}
					return
				}
				oldRow := rowsFor(u)[oldRi]
				for c, v := range newRow {
					if v != oldRow[c] {
						ws.MarkLoadChanged(c)
					}
				}
			},
			func() bool {
				got := view.ScreenedNEIncremental(ws, a, budgets, DefaultEps)
				want := view.ScreenedNE(plain, a, budgets, DefaultEps)
				if got != want {
					t.Fatalf("%s: incremental oracle says %v, stateless says %v at %v", rate.Name(), got, want, idx)
				}
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}
