package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/combin"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// This file pins the workspace/table/screen kernel against reference
// implementations of the pre-refactor serial code paths. The refactor's
// contract is byte-identical results: every tabulated value is produced by
// the same floating-point expression the interface path evaluates, the DP
// visits states in the same order, and the Eq. 7 screen is reject-only with
// DP confirmation — so utilities, best responses, NE verdicts and
// enumeration output (order included) must be exactly equal, not merely
// close.

// referenceBestResponseToLoads is the pre-workspace DP: fresh heap slices
// per call, rate interface calls in the inner loop. Kept verbatim from the
// pre-refactor BestResponseToLoads (minus input validation).
func referenceBestResponseToLoads(rate ratefn.Func, ext []int, k int) ([]int, float64) {
	C := len(ext)
	v := make([][]float64, C)
	for c := 0; c < C; c++ {
		v[c] = make([]float64, k+1)
		for x := 1; x <= k; x++ {
			v[c][x] = share(x, ext[c]+x, rate)
		}
	}
	f := make([][]float64, C+1)
	choice := make([][]int, C)
	for c := range f {
		f[c] = make([]float64, k+1)
	}
	for c := range choice {
		choice[c] = make([]int, k+1)
	}
	for c := C - 1; c >= 0; c-- {
		for b := 0; b <= k; b++ {
			best, bestX := math.Inf(-1), 0
			for x := 0; x <= b; x++ {
				if val := v[c][x] + f[c+1][b-x]; val > best {
					best, bestX = val, x
				}
			}
			f[c][b] = best
			choice[c][b] = bestX
		}
	}
	row := make([]int, C)
	b := k
	for c := 0; c < C; c++ {
		row[c] = choice[c][b]
		b -= row[c]
	}
	return row, f[0][k]
}

// referenceUtility is Eq. 3 through the rate interface (no table).
func referenceUtility(g *Game, a *Alloc, i int) float64 {
	var u float64
	for c := 0; c < a.Channels(); c++ {
		ki := a.Radios(i, c)
		if ki == 0 {
			continue
		}
		kc := a.Load(c)
		u += float64(ki) / float64(kc) * g.Rate().Rate(kc)
	}
	return u
}

// referenceIsNE is the pre-refactor oracle: per-user reference DP against
// reference utility at DefaultEps, no screen.
func referenceIsNE(g *Game, a *Alloc) bool {
	for i := 0; i < g.Users(); i++ {
		ext := make([]int, g.Channels())
		for c := range ext {
			ext[c] = a.Load(c) - a.Radios(i, c)
		}
		_, best := referenceBestResponseToLoads(g.Rate(), ext, g.Budget(i))
		if best > referenceUtility(g, a, i)+DefaultEps {
			return false
		}
	}
	return true
}

// referenceEnumerateNE is the pre-refactor serial enumeration: full SetRow
// odometer (every user re-set on every profile) plus referenceIsNE.
func referenceEnumerateNE(t *testing.T, g *Game, maxProfiles int64) []*Alloc {
	t.Helper()
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		t.Fatal(err)
	}
	a := g.NewEmptyAlloc()
	sizes := make([]int, g.Users())
	for i := range sizes {
		sizes[i] = len(rows[i])
	}
	var out []*Alloc
	err = combin.Product(sizes, func(idx []int) bool {
		for i, ri := range idx {
			if err := a.SetRow(i, rows[i][ri]); err != nil {
				t.Fatal(err)
			}
		}
		if referenceIsNE(g, a) {
			out = append(out, a.Clone())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// differentialRates covers every ratefn family, including the Table and
// MonotoneEnvelope forms. The envelope wraps a non-monotone inner curve so
// its running minimum actually engages.
func differentialRates(t *testing.T) []ratefn.Func {
	t.Helper()
	table, err := ratefn.NewTable("meas", []float64{5, 5, 3.5, 2.25, 2.25, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// A Table of another family's samples, saturating beyond them.
	inner := ratefn.Harmonic{R0: 7, Alpha: 0.45}
	samples := make([]float64, 24)
	for k := range samples {
		samples[k] = inner.Rate(k + 1)
	}
	frozen, err := ratefn.NewTable(inner.Name(), samples)
	if err != nil {
		t.Fatal(err)
	}
	return []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 2, Alpha: 0.6},
		ratefn.Geometric{R0: 3, Beta: 0.7},
		ratefn.Linear{R0: 2, Slope: 0.4},
		table,
		frozen,
		ratefn.NewMonotoneEnvelope(bumpy{}),
		ratefn.Harmonic{R0: 4, Alpha: 0.25},
	}
}

// bumpy is deterministic but non-monotone, exercising the envelope.
type bumpy struct{}

func (bumpy) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return 3/float64(k) + 0.25*float64(k%3)
}
func (bumpy) Name() string { return "bumpy" }

// TestDifferentialEnumerateNEMatchesReference: the screened workspace
// enumeration must reproduce the pre-refactor serial output exactly —
// same equilibria, same order — across all rate families.
func TestDifferentialEnumerateNEMatchesReference(t *testing.T) {
	rates := differentialRates(t)
	for seed := uint64(0); seed < 24; seed++ {
		rate := rates[int(seed)%len(rates)]
		rng := des.NewRNG(seed)
		users := 1 + rng.Intn(3)
		channels := 1 + rng.Intn(3)
		radios := 1 + rng.Intn(channels)
		checkEnumerateNEMatchesReference(t, mustGame(t, users, channels, radios, rate), fmt.Sprintf("seed %d", seed))
	}
}

// TestCanonicalNEMatchesUnreduced checks EnumerateNE against the unreduced
// reference enumeration, allocation for allocation and in order, on fixed
// uniform games under every rate family (including Table and
// MonotoneEnvelope). The name dates from the symmetry-reduced enumerator
// these games were chosen for; they stay as larger inputs of the grid walk.
func TestCanonicalNEMatchesUnreduced(t *testing.T) {
	dims := []struct{ users, channels, radios int }{
		{3, 3, 2},
		{4, 3, 1},
		{4, 2, 2},
		{2, 3, 3},
	}
	for _, rate := range differentialRates(t) {
		for _, d := range dims {
			checkEnumerateNEMatchesReference(t, mustGame(t, d.users, d.channels, d.radios, rate), "uniform")
		}
	}
}

// TestHeteroCanonicalMatchesUnreduced is TestCanonicalNEMatchesUnreduced
// on mixed-budget games whose equal-budget users are contiguous,
// interleaved or singletons.
func TestHeteroCanonicalMatchesUnreduced(t *testing.T) {
	mixed := []struct {
		channels int
		budgets  []int
	}{
		{3, []int{2, 2, 1}},
		{2, []int{1, 2, 1}}, // equal-budget users 0 and 2 straddle user 1
		{3, []int{1, 2, 3}}, // no two budgets equal
		{3, []int{2, 1, 2, 1}},
		{3, []int{1, 2, 2, 3}}, // one equal-budget pair among two singletons
	}
	for _, rate := range differentialRates(t) {
		for _, m := range mixed {
			checkEnumerateNEMatchesReference(t, mustHetero(t, m.channels, m.budgets, rate), "mixed")
		}
	}
}

func checkEnumerateNEMatchesReference(t *testing.T, g *Game, label string) {
	t.Helper()
	label = fmt.Sprintf("%s (%s, C=%d, budgets %v)", label, g.Rate().Name(), g.Channels(), g.Budgets())
	want := referenceEnumerateNE(t, g, 2_000_000)
	got, err := EnumerateNE(g, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d equilibria, reference found %d", label, len(got), len(want))
	}
	for j := range got {
		if !got[j].Equal(want[j]) {
			t.Fatalf("%s: equilibrium %d differs from reference order\ngot:\n%v\nwant:\n%v",
				label, j, got[j], want[j])
		}
	}
}

// TestDifferentialOracleAgreesWithExactRat pins the screened float oracle
// against exact rational arithmetic on random allocations for every
// exact-capable family.
func TestDifferentialOracleAgreesWithExactRat(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(2),
		ratefn.Harmonic{R0: 2, Alpha: 0.5},
		ratefn.Geometric{R0: 1, Beta: 0.5},
		ratefn.Linear{R0: 2, Slope: 0.25},
	}
	f := func(seed uint64) bool {
		rate := rates[int(seed%uint64(len(rates)))]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			return false
		}
		exact, ok, err := g.IsNashEquilibriumRat(a)
		if err != nil || !ok {
			return false
		}
		ws := NewWorkspace()
		got, err := g.IsNashEquilibriumWith(ws, a)
		if err != nil {
			return false
		}
		if got != exact {
			t.Logf("seed %d (%s): screened oracle %v, exact %v\n%v", seed, rate.Name(), got, exact, a)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialBestResponseMatchesReference: the workspace DP must
// return bit-identical rows and values to the pre-refactor heap DP on
// random instances across families, with the workspace reused between
// calls (stale state must not leak).
func TestDifferentialBestResponseMatchesReference(t *testing.T) {
	rates := differentialRates(t)
	ws := NewWorkspace()
	for seed := uint64(0); seed < 200; seed++ {
		rate := rates[int(seed)%len(rates)]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Users(); i++ {
			ext := make([]int, g.Channels())
			for c := range ext {
				ext[c] = a.Load(c) - a.Radios(i, c)
			}
			wantRow, wantVal := referenceBestResponseToLoads(g.Rate(), ext, g.Radios())
			gotRow, gotVal, err := g.BestResponseInto(ws, a, i)
			if err != nil {
				t.Fatal(err)
			}
			if gotVal != wantVal {
				t.Fatalf("seed %d (%s) user %d: DP value %v, reference %v (must be bit-identical)",
					seed, rate.Name(), i, gotVal, wantVal)
			}
			for c := range wantRow {
				if gotRow[c] != wantRow[c] {
					t.Fatalf("seed %d (%s) user %d: row %v, reference %v", seed, rate.Name(), i, gotRow, wantRow)
				}
			}
			if gotU, wantU := g.Utility(a, i), referenceUtility(g, a, i); gotU != wantU {
				t.Fatalf("seed %d (%s) user %d: utility %v, reference %v", seed, rate.Name(), i, gotU, wantU)
			}
		}
	}
}

// TestDifferentialBestResponseLayouts: the DP must give bit-identical rows
// and values whether it reads its v rows in place from the share plane
// (the game's own view) or builds them in the workspace from the rate
// table (a view over the same game with the plane cap forced to zero), and
// both must match the reference DP; the deviation test must agree with the
// reference verdict and, whenever it runs the DP (forced here by a
// tolerance of -1), return the full DP's row and value bit for bit. The games include mixed budgets where a
// small-budget user faces an external load above Σk_i − max k_i, the rows
// a plane sized for the largest budget alone would not cover.
func TestDifferentialBestResponseLayouts(t *testing.T) {
	rates := differentialRates(t)
	ws := NewWorkspace()
	beyond := 0 // DPs of a user with k < max k_i facing a load above Σk_i − max k_i
	check := func(name string, rate ratefn.Func, budgets []int, a *Alloc) {
		t.Helper()
		g, err := NewHeteroGame(a.Channels(), budgets, rate)
		if err != nil {
			t.Fatal(err)
		}
		maxK := slices.Max(budgets)
		if err := g.CheckAlloc(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		saved := maxShareTableLen
		maxShareTableLen = 0 // the same game, its view built without a plane
		planeless := newGame(g.channels, g.budgets, rate)
		maxShareTableLen = saved
		if g.View().share == nil || planeless.View().share != nil {
			t.Fatalf("%s: plane present %v / %v, want true / false", name, g.View().share != nil, planeless.View().share != nil)
		}
		for i, k := range budgets {
			ext := make([]int, a.Channels())
			for c := range ext {
				ext[c] = a.Load(c) - a.Radios(i, c)
			}
			if k < maxK && slices.Max(ext) > g.total-maxK {
				beyond++
			}
			wantRow, wantVal := referenceBestResponseToLoads(rate, ext, k)
			for _, game := range []*Game{g, planeless} {
				layout := "plane"
				if game.View().share == nil {
					layout = "table"
				}
				row, val, err := game.BestResponseInto(ws, a, i)
				if err != nil {
					t.Fatal(err)
				}
				if val != wantVal || !slices.Equal(row, wantRow) {
					t.Fatalf("%s (%s) user %d (k=%d, ext %v) %s rows: row %v value %v, reference row %v value %v",
						name, rate.Name(), i, k, ext, layout, row, val, wantRow, wantVal)
				}
				if _, _, improves, err := game.DeviationInto(ws, a, i, DefaultEps); err != nil || improves != (wantVal > game.Utility(a, i)+DefaultEps) {
					t.Fatalf("%s (%s) user %d %s rows: deviation verdict %v (%v), reference value %v against utility %v",
						name, rate.Name(), i, layout, improves, err, wantVal, game.Utility(a, i))
				}
				if row, val, improves, err := game.DeviationInto(ws, a, i, -1); err != nil || !improves || val != wantVal || !slices.Equal(row, wantRow) {
					t.Fatalf("%s (%s) user %d %s rows: deviation test at eps -1: row %v value %v improves %v (%v), want row %v value %v",
						name, rate.Name(), i, layout, row, val, improves, err, wantRow, wantVal)
				}
			}
		}
		for _, game := range []*Game{g, planeless} {
			if got, err := game.IsNashEquilibrium(a); err != nil || got != referenceIsNE(g, a) {
				t.Fatalf("%s (%s): NE verdict %v (%v), reference %v", name, rate.Name(), got, err, referenceIsNE(g, a))
			}
		}
	}
	for seed := uint64(0); seed < 200; seed++ {
		rate := rates[int(seed)%len(rates)]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("uniform seed %d", seed), rate, g.Budgets(), a)
	}
	// Mixed budgets: one user owns a single radio, the others up to |C|,
	// and each user deploys all or all but one of its radios, half of them
	// stacked on channel 0, so external loads up to Σk_i − 1 occur.
	for seed := uint64(0); seed < 200; seed++ {
		rate := rates[int(seed)%len(rates)]
		rng := des.NewRNG(seed)
		channels := 2 + rng.Intn(3)
		budgets := []int{1}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			budgets = append(budgets, 1+rng.Intn(channels))
		}
		a, err := NewAlloc(len(budgets), channels)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range budgets {
			for r := k - rng.Intn(2); r > 0; r-- {
				c := rng.Intn(2 * channels) // channel 0 half the time
				if c >= channels {
					c = 0
				}
				if err := a.Add(i, c, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(fmt.Sprintf("mixed seed %d", seed), rate, budgets, a)
	}
	// The hand case: Σk_i = 7, max k_i = 3, and the one-radio user faces
	// external load 6 on channel 1.
	for _, rate := range rates {
		check("stacked", rate, []int{1, 3, 3}, mustAlloc(t, [][]int{{1, 0, 0}, {0, 3, 0}, {0, 3, 0}}))
	}
	if beyond < 50 {
		t.Fatalf("only %d DPs faced a load above Σk_i − max k_i with a small budget; the cases no longer cover them", beyond)
	}
	t.Logf("%d DPs faced a load above Σk_i − max k_i with a small budget", beyond)
}

// TestIllegalAllocErrors: a channel loaded beyond the game's radio total
// lies outside the rate table, so the checked entry points must refuse the
// allocation instead of reading past it. PriceOfAnarchy runs CheckAlloc,
// which must also catch cell values whose sum wraps (SetRow can build
// them); BenefitOfMove checks the two loads it reads.
func TestIllegalAllocErrors(t *testing.T) {
	g := mustHetero(t, 3, []int{1, 2}, ratefn.Harmonic{R0: 1, Alpha: 0.5})
	over := mustAlloc(t, [][]int{{3, 0, 0}, {2, 0, 0}}) // both over budget, load 5 > 3
	if poa, err := PriceOfAnarchy(g, over); err == nil {
		t.Fatalf("PriceOfAnarchy of an over-budget allocation = %v, want an error", poa)
	}
	if d, err := g.BenefitOfMove(over, 0, 0, 1); err == nil {
		t.Fatalf("BenefitOfMove from a channel with load 5 = %v, want an error", d)
	}
	// User 1 is over budget onto the target channel: kc+1 = 4 > Σk_i.
	target := mustAlloc(t, [][]int{{1, 0, 0}, {0, 3, 0}})
	if d, err := g.BenefitOfMove(target, 0, 0, 1); err == nil {
		t.Fatalf("BenefitOfMove onto a channel with load 3 = %v, want an error", d)
	}
	// AllocFromMatrix, SetRow and Add refuse cells whose sum wraps; an
	// allocation written cell by cell in-package can still hold them, so
	// the checked entry points guard against them too.
	setRows := func(rows [][]int) *Alloc {
		a := g.NewEmptyAlloc()
		for i, row := range rows {
			for c, v := range row {
				a.m[i][c] = v
				a.load[c] += v
			}
		}
		return a
	}
	// A load wrapped negative by huge cells is outside the domain too.
	negative := setRows([][]int{{math.MaxInt, 0, 0}, {1, 0, 0}})
	if d, err := g.BenefitOfMove(negative, 1, 0, 1); err == nil {
		t.Fatalf("BenefitOfMove from a channel with load %d = %v, want an error", negative.Load(0), d)
	}
	// Cells that wrap the row sum to 0 are still over budget.
	wrapped := setRows([][]int{{math.MaxInt, math.MaxInt, 2}, {0, 0, 0}})
	if err := g.CheckAlloc(wrapped); err == nil {
		t.Fatal("CheckAlloc accepted a row whose cells wrap its sum to 0")
	}
	// At the edge of the domain a legal allocation is still served.
	legal := mustAlloc(t, [][]int{{1, 0, 0}, {0, 2, 0}})
	d, err := g.BenefitOfMove(legal, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Rate()
	if want := -r.Rate(1) + 1.0/3*r.Rate(3); d != want {
		t.Fatalf("BenefitOfMove = %v, want %v", d, want)
	}
	if _, err := PriceOfAnarchy(g, legal); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialFindDeviationMatchesReference: the workspace sweep must
// report the same first deviating user, row and gain as the pre-refactor
// FindDeviation.
func TestDifferentialFindDeviationMatchesReference(t *testing.T) {
	rates := differentialRates(t)
	ws := NewWorkspace()
	for seed := uint64(0); seed < 150; seed++ {
		rate := rates[int(seed)%len(rates)]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			t.Fatal(err)
		}
		var want *Deviation
		for i := 0; i < g.Users(); i++ {
			ext := make([]int, g.Channels())
			for c := range ext {
				ext[c] = a.Load(c) - a.Radios(i, c)
			}
			row, best := referenceBestResponseToLoads(g.Rate(), ext, g.Radios())
			if current := referenceUtility(g, a, i); best > current+DefaultEps {
				want = &Deviation{User: i, Better: row, Gain: best - current}
				break
			}
		}
		got, err := g.FindDeviationWith(ws, a, DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case got == nil && want == nil:
		case got == nil || want == nil:
			t.Fatalf("seed %d (%s): deviation %v, reference %v", seed, rate.Name(), got, want)
		default:
			if got.User != want.User || got.Gain != want.Gain {
				t.Fatalf("seed %d (%s): deviation %v, reference %v", seed, rate.Name(), got, want)
			}
			for c := range want.Better {
				if got.Better[c] != want.Better[c] {
					t.Fatalf("seed %d (%s): better row %v, reference %v", seed, rate.Name(), got.Better, want.Better)
				}
			}
		}
	}
}
