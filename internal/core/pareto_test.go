package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// checkParetoWitness asserts that w is a legal allocation Pareto-dominating
// the base utilities under the search's exact comparisons.
func checkParetoWitness(t *testing.T, g *Game, base []float64, w *Alloc, eps float64) {
	t.Helper()
	if err := g.CheckAlloc(w); err != nil {
		t.Fatalf("witness is not a legal allocation: %v", err)
	}
	strict := false
	for i := range base {
		u := g.Utility(w, i)
		if u < base[i]-eps {
			t.Fatalf("witness hurts user %d: %v < %v - %v\n%v", i, u, base[i], eps, w)
		}
		if u > base[i]+eps {
			strict = true
		}
	}
	if !strict {
		t.Fatalf("witness improves nobody strictly\n%v", w)
	}
}

// TestParetoVerdictCounts pins, for every (rate family, game, eps) input,
// how many of the game's profiles admit a Pareto improvement when taken as
// the base allocation, and checks every witness. The counts were recorded
// while the search was still orbit-reduced, where they agreed with the
// grid walk on every base. The subtests keep that search's cross-check
// suites: small uniform games, mixed-budget games (budgets [2 1 2] put users 0 and 2 in one class
// around user 1), and tolerances on the TDMA(1) utility lattice, where
// u-base lands exactly on ±eps.
func TestParetoVerdictCounts(t *testing.T) {
	rates := differentialRates(t)
	tdma := []ratefn.Func{ratefn.NewTDMA(1)}
	def := []float64{DefaultEps}
	cases := []struct {
		group    string
		rates    []ratefn.Func
		channels int
		budgets  []int
		eps      []float64
		bases    int
		want     []int // improvable bases, per rate then per eps
	}{
		{"uniform", rates, 2, []int{1, 1}, def, 9, []int{7, 7, 7, 7, 7, 7, 7, 7}},
		{"uniform", rates, 2, []int{2, 2}, def, 36, []int{17, 28, 28, 28, 21, 24, 28, 24}},
		{"uniform", rates, 3, []int{2, 2}, def, 100, []int{82, 88, 88, 88, 82, 88, 88, 88}},
		{"uniform", rates, 2, []int{2, 2, 2}, def, 216, []int{53, 159, 159, 177, 144, 116, 153, 116}},
		{"hetero", rates, 2, []int{1, 2}, def, 18, []int{11, 13, 13, 13, 11, 13, 13, 13}},
		{"hetero", rates, 2, []int{1, 1, 2}, def, 54, []int{23, 35, 35, 35, 27, 31, 35, 31}},
		{"hetero", rates, 3, []int{2, 1, 2}, def, 400, []int{271, 340, 340, 340, 289, 322, 340, 322}},
		{"eps-boundary", tdma, 2, []int{1, 1}, []float64{0, 0.25, 0.5, 1}, 9, []int{7, 7, 5, 0}},
		{"eps-boundary", tdma, 3, []int{1, 1, 1}, []float64{0, 1.0 / 6, 1.0 / 3, 0.5}, 64, []int{58, 58, 58, 40}},
	}
	for _, group := range []string{"uniform", "hetero", "eps-boundary"} {
		t.Run(group, func(t *testing.T) {
			for _, tc := range cases {
				if tc.group != group {
					continue
				}
				for ri, rate := range tc.rates {
					g := mustHetero(t, tc.channels, tc.budgets, rate)
					var bases []*Alloc
					if err := forEachAlloc(g, 5_000_000, func(b *Alloc) bool {
						bases = append(bases, b.Clone())
						return true
					}); err != nil {
						t.Fatal(err)
					}
					if len(bases) != tc.bases {
						t.Fatalf("%s %v/%d: %d profiles, want %d", rate.Name(), tc.budgets, tc.channels, len(bases), tc.bases)
					}
					for ei, eps := range tc.eps {
						got := 0
						for _, a := range bases {
							w, err := FindParetoImprovement(g, a, eps, 5_000_000)
							if err != nil {
								t.Fatal(err)
							}
							if w != nil {
								checkParetoWitness(t, g, g.Utilities(a), w, eps)
								got++
							}
						}
						if want := tc.want[ri*len(tc.eps)+ei]; got != want {
							t.Errorf("%s %v/%d eps=%v: %d of %d bases improvable, want %d",
								rate.Name(), tc.budgets, tc.channels, eps, got, len(bases), want)
						}
					}
				}
			}
		})
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// relabel returns a copy of a in which user i's row belongs to user
// users[i] and channel c's radios sit on channel chans[c].
func relabel(t *testing.T, a *Alloc, users, chans []int) *Alloc {
	t.Helper()
	m := make([][]int, a.Users())
	for i := range m {
		m[users[i]] = make([]int, a.Channels())
	}
	for i := range m {
		for c, to := range chans {
			m[users[i]][to] = a.Radios(i, c)
		}
	}
	b, err := AllocFromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// classPermutations returns every user relabelling that maps each class
// of users onto itself.
func classPermutations(users int, classes [][]int) [][]int {
	out := [][]int{make([]int, users)}
	for u := range out[0] {
		out[0][u] = u
	}
	for _, class := range classes {
		var next [][]int
		for _, p := range out {
			for _, q := range permutations(len(class)) {
				r := append([]int(nil), p...)
				for k, u := range class {
					r[u] = class[q[k]]
				}
				next = append(next, r)
			}
		}
		out = next
	}
	return out
}

// budgetClasses groups user indices (ascending) by radio budget, classes
// in order of first appearance: the users a relabelling may swap without
// changing the game.
func budgetClasses(budgets []int) [][]int {
	var classes [][]int
	classOf := map[int]int{}
	for u, k := range budgets {
		ci, seen := classOf[k]
		if !seen {
			ci = len(classes)
			classOf[k] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], u)
	}
	return classes
}

// unreducedParetoWitness scans every profile of g in odometer order,
// scoring all users of each, and returns a clone of the first that hurts
// nobody and helps someone, or nil.
func unreducedParetoWitness(t *testing.T, g *Game, base []float64, eps float64) *Alloc {
	t.Helper()
	var found *Alloc
	if err := forEachAlloc(g, 5_000_000, func(b *Alloc) bool {
		hurt, strict := false, false
		for i, u := range g.Utilities(b) {
			hurt = hurt || u < base[i]-eps
			strict = strict || u > base[i]+eps
		}
		if !hurt && strict {
			found = b.Clone()
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

// checkParetoOrbits runs the search from every profile of g as the base:
// its witness must be exactly the unreduced scan's, and every relabelling
// of the base by a user permutation in perms and any channel permutation
// (the base's orbit under g's symmetries) must get the same verdict, with
// a valid witness.
func checkParetoOrbits(t *testing.T, g *Game, perms [][]int, label string) {
	t.Helper()
	var bases []*Alloc
	if err := forEachAlloc(g, 5_000_000, func(b *Alloc) bool {
		bases = append(bases, b.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	chanPerms := permutations(g.Channels())
	for _, a := range bases {
		base := g.Utilities(a)
		got, err := FindParetoImprovement(g, a, DefaultEps, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		want := unreducedParetoWitness(t, g, base, DefaultEps)
		if (got == nil) != (want == nil) || (got != nil && !got.Equal(want)) {
			t.Fatalf("%s: search found %v, unreduced scan found %v for base\n%v", label, got, want, a)
		}
		for _, up := range perms {
			for _, cp := range chanPerms {
				b := relabel(t, a, up, cp)
				w, err := FindParetoImprovement(g, b, DefaultEps, 5_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if (w == nil) != (got == nil) {
					t.Fatalf("%s: base improvable %v but its relabelling (users %v, channels %v) improvable %v\n%v\n%v",
						label, got != nil, up, cp, w != nil, a, b)
				}
				if w != nil {
					checkParetoWitness(t, g, g.Utilities(b), w, DefaultEps)
				}
			}
		}
	}
}

// TestParetoOrbitAgreesWithUnreducedExhaustive: on every profile of small
// uniform games across every ratefn family (Table and MonotoneEnvelope
// included), the search's witness is the unreduced scan's, and the verdict
// is the same on every profile of the base's orbit under any relabelling
// of users and channels.
func TestParetoOrbitAgreesWithUnreducedExhaustive(t *testing.T) {
	configs := []struct{ users, channels, radios int }{
		{2, 2, 1},
		{2, 2, 2},
		{2, 3, 2},
		{3, 2, 2},
	}
	for _, rate := range differentialRates(t) {
		for _, cfg := range configs {
			g := mustGame(t, cfg.users, cfg.channels, cfg.radios, rate)
			checkParetoOrbits(t, g, permutations(cfg.users), rate.Name())
		}
	}
}

// TestParetoOrbitHeteroClasses is the same check where the users form
// several exchangeability classes: relabellings keep each class (from
// budgetClasses) onto itself, including non-contiguous ones (budgets
// [2 1 2]: users 0 and 2 share a class around user 1). The uniform
// 3-user, 2-channel, 2-radio harmonic(2,α=0.6) game is also split by hand
// into the classes {0, 2} and {1}.
func TestParetoOrbitHeteroClasses(t *testing.T) {
	rate := ratefn.Harmonic{R0: 2, Alpha: 0.6}
	split := mustGame(t, 3, 2, 2, rate)
	checkParetoOrbits(t, split, classPermutations(3, [][]int{{0, 2}, {1}}), "split-class")
	mixed := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{1, 2}},
		{2, []int{1, 1, 2}},
		{3, []int{2, 1, 2}},
	}
	for _, m := range mixed {
		g := mustHetero(t, m.channels, m.budgets, rate)
		perms := classPermutations(len(m.budgets), budgetClasses(m.budgets))
		checkParetoOrbits(t, g, perms, fmt.Sprintf("%v/%d", m.budgets, m.channels))
	}
}

// TestFindParetoImprovementWitnessIsOdometerFirst pins the exact witness
// on a hand-worked case. Three one-radio users on two TDMA(1) channels:
// users 0 and 1 share channel 1 (1/2 each) and user 2 is idle (0). Each
// user's rows are idle, {0 1}, {1 0}, and user 0 is the most significant
// digit. Every profile with user 0 idle hurts user 0, and every one with
// user 0 on channel 2 and user 1 idle hurts user 1. With users 0 and 1 on
// channel 2, user 2 idle improves nobody, user 2 on channel 2 hurts all
// three, and user 2 alone on channel 1 gains 1 while the others keep 1/2.
// That is the first dominating profile, ahead of e.g. users 0, 1 and 2 on
// channels 2, 1 and none, which also dominates.
func TestFindParetoImprovementWitnessIsOdometerFirst(t *testing.T) {
	g := mustGame(t, 3, 2, 1, ratefn.NewTDMA(1))
	base := mustAlloc(t, [][]int{
		{1, 0},
		{1, 0},
		{0, 0},
	})
	want := mustAlloc(t, [][]int{
		{0, 1},
		{0, 1},
		{1, 0},
	})
	got, err := FindParetoImprovement(g, base, DefaultEps, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("witness\n%v\nwant the first dominating profile in odometer order\n%v", got, want)
	}
}

// TestEnumerateNEHonoursCap keeps the exhaustive-search guard on both
// grid searches.
func TestEnumerateNEHonoursCap(t *testing.T) {
	g, err := NewGame(4, 4, 3, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumerateNE(g, 100); err == nil {
		t.Fatal("EnumerateNE: profile cap not enforced")
	}
	if _, err := FindParetoImprovement(g, g.NewEmptyAlloc(), DefaultEps, 100); err == nil {
		t.Fatal("FindParetoImprovement: profile cap not enforced")
	}
}

// TestForEachRestSurfacesSetRowError pins the error plumbing of the grid
// walker (gridWalk): an invariant-breaking allocation (here, strategy rows
// whose length does not match the game's channel count) must surface as
// an error instead of silently truncating the enumeration.
func TestForEachRestSurfacesSetRowError(t *testing.T) {
	g, err := NewGame(2, 3, 2, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	badRows := [][][]int{{{1, 1}}, {{1, 1}}} // two channels where the game has three
	calls := 0
	err = gridWalk(g, badRows, func(*Alloc) bool {
		calls++
		return true
	})
	if err == nil {
		t.Fatal("invariant-breaking SetRow must surface, not truncate the walk")
	}
	if want := "setting row for user 0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times on an invalid allocation", calls)
	}
}

// TestOptimalWelfareFreshLoads: every call returns a fresh load slice, so
// mutating one result cannot change the next, and concurrent callers of
// one game get identical values.
func TestOptimalWelfareFreshLoads(t *testing.T) {
	g := mustGame(t, 3, 3, 2, ratefn.Harmonic{R0: 1, Alpha: 1})
	opt1, loads1 := OptimalWelfareAllPlaced(g)
	wantVal, wantLoads := OptimalLoadWelfare(g.View().Frozen(), g.Channels(), g.Users()*g.Radios())
	if opt1 != wantVal {
		t.Fatalf("optimum %v, direct DP %v", opt1, wantVal)
	}
	loads1[0] = 99 // the returned slice is the caller's
	opt2, loads2 := OptimalWelfareAllPlaced(g)
	if opt2 != wantVal {
		t.Fatalf("second call optimum %v, want %v", opt2, wantVal)
	}
	for c := range wantLoads {
		if loads2[c] != wantLoads[c] {
			t.Fatalf("second call loads %v, want %v", loads2, wantLoads)
		}
	}
	ne, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	first, err := PriceOfAnarchy(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]float64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			poa, err := PriceOfAnarchy(g, ne)
			if err != nil {
				results[w] = -1
				return
			}
			results[w] = poa
		}(w)
	}
	wg.Wait()
	for w, poa := range results {
		if poa != first {
			t.Fatalf("concurrent PoA %d: %v, want %v", w, poa, first)
		}
	}
}
