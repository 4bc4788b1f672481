package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// checkParetoWitness asserts that w is a legal allocation Pareto-dominating
// the base utilities under the unreduced scan's exact comparisons.
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

// crossCheckPareto runs the orbit-aware and unreduced searches from every
// profile of g as the base allocation: existence must agree exactly, and
// every returned witness must be a valid improvement.
func crossCheckPareto(t *testing.T, g *Game, eps float64, label string) {
	t.Helper()
	var bases []*Alloc
	if err := forEachAlloc(g, 5_000_000, func(b *Alloc) bool {
		bases = append(bases, b.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, a := range bases {
		want, err := findParetoImprovementUnreduced(g, a, eps, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FindParetoImprovement(g, a, eps, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("%s eps=%v: orbit search found %v, unreduced found %v for base\n%v",
				label, eps, got != nil, want != nil, a)
		}
		if got != nil {
			checkParetoWitness(t, g, g.Utilities(a), got, eps)
		}
	}
}

// TestParetoOrbitAgreesWithUnreducedExhaustive: on every profile of small
// games across every ratefn family (Table and MonotoneEnvelope included),
// the orbit-aware search finds an improvement iff the unreduced search
// does, and its witness is a valid improvement.
func TestParetoOrbitAgreesWithUnreducedExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive Pareto cross-check")
	}
	configs := []struct{ users, channels, radios int }{
		{2, 2, 1},
		{2, 2, 2},
		{2, 3, 2},
		{3, 2, 2},
	}
	for _, rate := range differentialRates(t) {
		for _, cfg := range configs {
			g := mustGame(t, cfg.users, cfg.channels, cfg.radios, rate)
			crossCheckPareto(t, g, DefaultEps, rate.Name())
		}
	}
}

// TestHeteroParetoOrbitAgreesWithUnreduced is the same cross-check on
// every profile of small mixed-budget games, including a deployment whose
// exchangeability class is non-contiguous (budgets [2 1 2]: users 0 and 2
// share a class around user 1).
func TestHeteroParetoOrbitAgreesWithUnreduced(t *testing.T) {
	mixed := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{1, 2}},
		{2, []int{1, 1, 2}},
		{3, []int{2, 1, 2}},
	}
	for _, rate := range differentialRates(t) {
		for _, m := range mixed {
			g := mustHetero(t, m.channels, m.budgets, rate)
			crossCheckPareto(t, g, DefaultEps, fmt.Sprintf("%s %v/%d", rate.Name(), m.budgets, m.channels))
		}
	}
}

// TestParetoOrbitEpsBoundaries stresses tolerances where utility
// differences sit exactly at base-eps / base+eps: under TDMA(1) utilities
// are small rationals (1, 1/2, 1/3, ...), so eps drawn from the same
// lattice lands comparisons on the boundary, where > and < must agree
// between the orbit matching test and the unreduced scan bit for bit.
func TestParetoOrbitEpsBoundaries(t *testing.T) {
	cases := []struct {
		users, channels, radios int
		eps                     []float64
	}{
		{2, 2, 1, []float64{0, 0.25, 0.5, 1}},
		{3, 3, 1, []float64{0, 1.0 / 6, 1.0 / 3, 0.5}},
	}
	for _, tc := range cases {
		g := mustGame(t, tc.users, tc.channels, tc.radios, ratefn.NewTDMA(1))
		for _, eps := range tc.eps {
			crossCheckPareto(t, g, eps, "tdma-boundary")
		}
	}
}

// TestParetoOrbitHeteroClasses drives the shared matcher through games
// with several exchangeability classes per profile on a uniform game split
// by hand: users 0 and 2 share a class while user 1 is alone, so the
// canonical constraint chains through a non-contiguous class exactly as
// mixed-budget games do. (TestHeteroParetoOrbitAgreesWithUnreduced
// cross-checks real mixed-budget games.)
func TestParetoOrbitHeteroClasses(t *testing.T) {
	g := mustGame(t, 3, 2, 2, ratefn.Harmonic{R0: 2, Alpha: 0.6})
	rows, err := strategyRows(g)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend user 1 has a different class key: same row table, so every
	// profile is still a legal profile of g, but the orbit space now has
	// two classes {0, 2} and {1}.
	oe := &OrbitEnumerator{
		View:     g.View(),
		Budgets:  []int{2, 7, 2},
		Channels: g.Channels(),
		RowsFor:  func(u int) [][]int { return rows[u] },
		Eps:      DefaultEps,
	}
	var bases []*Alloc
	if err := forEachAlloc(g, 5_000_000, func(b *Alloc) bool {
		bases = append(bases, b.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, a := range bases {
		want, err := findParetoImprovementUnreduced(g, a, DefaultEps, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oe.ParetoImprovement(g.Utilities(a), DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("split-class orbit search found %v, unreduced found %v for base\n%v",
				got != nil, want != nil, a)
		}
		if got != nil {
			checkParetoWitness(t, g, g.Utilities(a), got, DefaultEps)
		}
	}
}

// TestFindParetoImprovementParallelMatchesSerial: the sharded search must
// return byte-identical results to the serial orbit-aware search at every
// worker count, witness included.
func TestFindParetoImprovementParallelMatchesSerial(t *testing.T) {
	rates := []ratefn.Func{ratefn.NewTDMA(1), ratefn.Harmonic{R0: 2, Alpha: 0.6}}
	for _, rate := range rates {
		g := mustGame(t, 3, 3, 2, rate)
		ne, err := Algorithm1(g)
		if err != nil {
			t.Fatal(err)
		}
		crowded := mustAlloc(t, [][]int{
			{2, 0, 0},
			{2, 0, 0},
			{2, 0, 0},
		})
		bases := []*Alloc{ne, crowded, g.NewEmptyAlloc()}
		for bi, a := range bases {
			serial, err := FindParetoImprovement(g, a, DefaultEps, 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 5} {
				par, err := FindParetoImprovementParallel(g, a, DefaultEps, 5_000_000, workers)
				if err != nil {
					t.Fatal(err)
				}
				if (serial == nil) != (par == nil) {
					t.Fatalf("%s base %d workers %d: serial found %v, parallel found %v",
						rate.Name(), bi, workers, serial != nil, par != nil)
				}
				if serial != nil && !serial.Equal(par) {
					t.Fatalf("%s base %d workers %d: witnesses differ\nserial:\n%v\nparallel:\n%v",
						rate.Name(), bi, workers, serial, par)
				}
			}
		}
	}
}

// TestUtilitiesIntoMatchesUtilities pins the workspace-backed utility
// vector against the allocating form, bit for bit, with the buffer reused
// across instances.
func TestUtilitiesIntoMatchesUtilities(t *testing.T) {
	rates := differentialRates(t)
	ws := NewWorkspace()
	for seed := uint64(0); seed < 60; seed++ {
		rate := rates[int(seed)%len(rates)]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Utilities(a)
		got := g.UtilitiesInto(ws, a)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d utilities, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d user %d: UtilitiesInto %v, Utilities %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestOptimalWelfareMemo: the game-level memo must survive mutation of the
// returned loads and serve identical values concurrently.
func TestOptimalWelfareMemo(t *testing.T) {
	g := mustGame(t, 3, 3, 2, ratefn.Harmonic{R0: 1, Alpha: 1})
	opt1, loads1 := OptimalWelfareAllPlaced(g)
	wantVal, wantLoads := OptimalLoadWelfare(g.View().Frozen(), g.Channels(), g.Users()*g.Radios())
	if opt1 != wantVal {
		t.Fatalf("memoised optimum %v, direct DP %v", opt1, wantVal)
	}
	loads1[0] = 99 // returned copy must not corrupt the memo
	opt2, loads2 := OptimalWelfareAllPlaced(g)
	if opt2 != wantVal {
		t.Fatalf("second call optimum %v, want %v", opt2, wantVal)
	}
	for c := range wantLoads {
		if loads2[c] != wantLoads[c] {
			t.Fatalf("memo loads corrupted: %v, want %v", loads2, wantLoads)
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
