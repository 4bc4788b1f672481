package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// This file pins the quiet screen (RateView.quietScreen) against the DP
// fold: a quiet answer at a threshold lim must imply that the fold's value
// is at most lim, so a verdict the screen decides is the fold's verdict.

// screenCase lays out budget k's DP rows against external loads ext on rv
// and returns the screen's answer and greedy value at lim, the fold's
// value and the screen's band δ over these rows. k must be at least 1.
func screenCase(rv *RateView, ws *Workspace, ext []int, k int, lim float64) (quiet bool, g, fold, delta float64) {
	C := len(ext)
	ws.ensure(C, k)
	copy(ws.ext[:C], ext)
	v := rv.fillShares(ws, ws.ext[:C], k)
	g, quiet = rv.quietScreen(ws, v, C, k, lim)
	v1 := 0.0
	for c := range ext {
		v1 = max(v1, v[ws.voff[c]+1])
	}
	return quiet, g, bestResponseFold(ws, v, C, k), quietBand(C, k, v1)
}

// checkScreenCase runs one (ext, k) case at thresholds around the fold's
// value. Wherever the rows are screened it checks G <= F <= G + δ, that the
// thresholds at or below F + δ/4 reach the fold, and that no threshold
// below F is answered quiet. It reports whether the rows were screened and
// whether the verdict at F + DefaultEps was decided by the screen.
func checkScreenCase(t *testing.T, rv *RateView, ws *Workspace, ext []int, k int) (screened, quietAtEps bool) {
	t.Helper()
	screened, g, fold, delta := screenCase(rv, ws, ext, k, math.Inf(1))
	if !screened {
		for _, lim := range []float64{fold + DefaultEps, fold + 1} {
			if quiet, _, _, _ := screenCase(rv, ws, ext, k, lim); quiet {
				t.Fatalf("%s ext %v k %d: unscreened rows answered quiet at %v", rv.rate.Name(), ext, k, lim)
			}
		}
		return false, false
	}
	if !(g <= fold && fold <= g+delta) {
		t.Fatalf("%s ext %v k %d: greedy %v, fold %v, band %v: want G <= F <= G+δ", rv.rate.Name(), ext, k, g, fold, delta)
	}
	for _, lim := range []float64{fold - delta, math.Nextafter(fold, math.Inf(-1)), fold, fold + delta/4} {
		if quiet, _, _, _ := screenCase(rv, ws, ext, k, lim); quiet {
			t.Fatalf("%s ext %v k %d: quiet at %v inside the band of fold %v (δ %v)", rv.rate.Name(), ext, k, lim, fold, delta)
		}
	}
	quietAtEps, _, _, _ = screenCase(rv, ws, ext, k, fold+DefaultEps)
	return true, quietAtEps
}

// TestQuietScreenExhaustiveSmall runs every external load vector in
// [0, 5]^C for C <= 4 and budgets k <= 4 under every rate family.
func TestQuietScreenExhaustiveSmall(t *testing.T) {
	const maxLoad, maxOwn = 5, 4
	ws := NewWorkspace()
	for _, rate := range differentialRates(t) {
		rv := NewRateView(rate, maxLoad, maxOwn)
		cases, screened, quiet := 0, 0, 0
		for C := 1; C <= 4; C++ {
			ext := make([]int, C)
			for {
				for k := 1; k <= maxOwn; k++ {
					s, q := checkScreenCase(t, rv, ws, ext, k)
					cases++
					if s {
						screened++
					}
					if q {
						quiet++
					}
				}
				c := 0
				for c < C && ext[c] == maxLoad {
					ext[c] = 0
					c++
				}
				if c == C {
					break
				}
				ext[c]++
			}
		}
		if _, tdma := rate.(ratefn.Constant); tdma && screened != cases {
			t.Errorf("%s: %d of %d cases screened, want all (TDMA rows are concave)", rate.Name(), screened, cases)
		}
		if screened > 0 && quiet == 0 {
			t.Errorf("%s: %d screened cases, none decided quiet at F + eps", rate.Name(), screened)
		}
		t.Logf("%s: %d cases, %d screened, %d quiet at F + eps", rate.Name(), cases, screened, quiet)
	}
}

// TestQuietScreenSeededLarge runs seeded random load vectors on 16
// channels with budgets up to 8 under every rate family.
func TestQuietScreenSeededLarge(t *testing.T) {
	const C, maxLoad, maxOwn = 16, 40, 8
	ws := NewWorkspace()
	for f, rate := range differentialRates(t) {
		rv := NewRateView(rate, maxLoad, maxOwn)
		rng := des.NewRNG(uint64(0x5c4ee1 + f))
		screened, quiet := 0, 0
		for n := 0; n < 400; n++ {
			ext := make([]int, C)
			spread := 1 + rng.Intn(maxLoad)
			for c := range ext {
				ext[c] = rng.Intn(spread + 1)
			}
			s, q := checkScreenCase(t, rv, ws, ext, 1+rng.Intn(maxOwn))
			if s {
				screened++
			}
			if q {
				quiet++
			}
		}
		if _, tdma := rate.(ratefn.Constant); tdma && (screened != 400 || quiet == 0) {
			t.Errorf("%s: %d of 400 cases screened, %d quiet at F + eps; want all screened, some quiet", rate.Name(), screened, quiet)
		}
		t.Logf("%s: 400 cases, %d screened, %d quiet at F + eps", rate.Name(), screened, quiet)
	}
}

// TestConcavePrefix pins the row flag on hand-built rows.
func TestConcavePrefix(t *testing.T) {
	for _, tc := range []struct {
		row  []float64
		want int
	}{
		{[]float64{0}, 0},
		{[]float64{0, 1, 2, 3}, 3},           // equal increments are concave
		{[]float64{0, 1, 1.5, 1.75, 1.8}, 4}, // shrinking gains
		{[]float64{0, 3, 1.5, 0.75}, 2},      // geometric decay: -0.75 > -1.5
		{[]float64{0, 2, 3, 5}, 2},           // the third radio gains more than the second
		{[]float64{0, -1, -2}, 0},
		{[]float64{0, 1, math.NaN(), 2}, 1},
		{[]float64{0, 1, math.Inf(1)}, 1},
		{[]float64{0, 1, 1, 1, 1}, 4}, // flat after the first radio
	} {
		if got := concavePrefix(tc.row); got != tc.want {
			t.Errorf("concavePrefix(%v) = %d, want %d", tc.row, got, tc.want)
		}
	}
}

// TestQuietScreenRefusesNonConcaveRows: a load vector that reads a share
// row past its concave prefix never reaches the greedy, even at a
// threshold of +Inf, and the deviation test runs the fold.
func TestQuietScreenRefusesNonConcaveRows(t *testing.T) {
	ws := NewWorkspace()
	for _, rate := range []ratefn.Func{
		ratefn.Geometric{R0: 3, Beta: 0.5},
		ratefn.Harmonic{R0: 2, Alpha: 2},
		ratefn.Harmonic{R0: 2, Alpha: 0.5},
	} {
		const maxLoad, maxOwn = 64, 8
		rv := NewRateView(rate, maxLoad, maxOwn)
		refused := 0
		for m := 0; m <= maxLoad; m++ {
			p := int(rv.concave[m])
			if p >= maxOwn {
				continue
			}
			for k := p + 1; k <= maxOwn; k++ {
				ext := []int{3, m, 1}
				if quiet, _, _, _ := screenCase(rv, ws, ext, k, math.Inf(1)); quiet {
					t.Fatalf("%s: row %d is concave through %d, yet k=%d was screened", rate.Name(), m, p, k)
				}
				refused++
			}
		}
		if refused == 0 {
			t.Errorf("%s: no share row up to load %d is non-concave within %d radios", rate.Name(), maxLoad, maxOwn)
		}
	}
	// The geometric β = 0.5 row against an empty channel decays convexly
	// from the second radio: share(x, x) = 3·0.5^(x-1).
	rv := NewRateView(ratefn.Geometric{R0: 3, Beta: 0.5}, 4, 4)
	if got := rv.concave[0]; got != 2 {
		t.Fatalf("geometric β=0.5 row 0 concave through %d, want 2", got)
	}
	g, err := NewGame(2, 4, 3, ratefn.Geometric{R0: 3, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a := g.NewEmptyAlloc()
	for _, c := range []int{0, 0, 1} { // user 0 on channels 0, 0, 1
		if err := a.Add(0, c, 1); err != nil {
			t.Fatal(err)
		}
	}
	// User 1 plays its best response, so it is quiet, facing two empty
	// channels with a budget past row 0's concave prefix.
	best, _, err := g.BestResponse(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetRow(1, best); err != nil {
		t.Fatal(err)
	}
	row, _, improves, err := g.DeviationInto(ws, a, 1, DefaultEps)
	if err != nil || improves || !slices.Equal(row, best) {
		t.Fatalf("quiet user facing row 0 with k=3: row %v improves %v (%v), want the fold's row %v and no deviation", row, improves, err, best)
	}
}

// TestDeviationIntoNearBand builds thresholds current+eps within the
// screen's band of the fold's value on random games: every such verdict
// must reach the fold, and the deviation test must agree with the fold's
// verdict and, when it improves, return the fold's row and value.
func TestDeviationIntoNearBand(t *testing.T) {
	ws := NewWorkspace()
	rates := differentialRates(t)
	reached := 0
	for seed := uint64(0); seed < 300; seed++ {
		rate := rates[int(seed)%len(rates)]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			t.Fatal(err)
		}
		rv := g.View()
		for i := 0; i < g.Users(); i++ {
			wantRow, fold, err := g.BestResponseInto(ws, a, i)
			if err != nil {
				t.Fatal(err)
			}
			wantRow = slices.Clone(wantRow)
			v1 := 0.0
			for c := 0; c < a.Channels(); c++ {
				v1 = max(v1, rv.ShareAt(1, a.Load(c)-a.Radios(i, c)+1))
			}
			delta := quietBand(a.Channels(), g.Budget(i), v1)
			current := g.Utility(a, i)
			for _, off := range []float64{-delta, 0, delta / 4} {
				eps := fold + off - current
				row, best, improves, err := g.DeviationInto(ws, a, i, eps)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d (%s) user %d, threshold fold%+v", seed, rate.Name(), i, off)
				if row == nil {
					t.Fatalf("%s: screened quiet inside the band", label)
				}
				if improves != (fold > current+eps) {
					t.Fatalf("%s: improves %v, fold %v against %v", label, improves, fold, current+eps)
				}
				if best != fold || !slices.Equal(row, wantRow) {
					t.Fatalf("%s: row %v value %v, fold row %v value %v", label, row, best, wantRow, fold)
				}
				reached++
			}
		}
	}
	t.Logf("%d near-band verdicts reached the fold", reached)
}

// TestDeviationIntoScreensEquilibria: at a TDMA Nash equilibrium every
// user is quiet, and the screen decides each verdict without a fold.
func TestDeviationIntoScreensEquilibria(t *testing.T) {
	g, err := NewGame(12, 6, 3, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	ne, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	if dev, err := g.FindDeviationWith(ws, ne, DefaultEps); err != nil || dev != nil {
		t.Fatalf("Algorithm 1's equilibrium has deviation %v (%v)", dev, err)
	}
	if ws.obs.screenQuiet != uint64(g.Users()) || ws.obs.dpCalls != 0 {
		t.Fatalf("%d users: %d screened quiet verdicts, %d folds; want all screened, no folds",
			g.Users(), ws.obs.screenQuiet, ws.obs.dpCalls)
	}
}

// FuzzQuietScreen: for a fuzzed rate family, external loads, budget,
// current row and tolerance, the deviation test's verdict is the fold's
// (a screened quiet verdict implies the fold is quiet), and an improving
// verdict carries the fold's row and value. The tolerance is either taken
// raw from its bits or placed within a few bands of the fold's value.
func FuzzQuietScreen(f *testing.F) {
	f.Add(uint8(0), 1.0, []byte{1, 2, 0, 3}, uint8(2), []byte{1, 1}, false, uint64(0))
	f.Add(uint8(1), 0.6, []byte{0, 0, 5}, uint8(3), []byte{0, 2, 1}, true, uint64(1))
	f.Add(uint8(2), 0.5, []byte{0, 4, 1, 1}, uint8(3), []byte{3}, true, uint64(1<<63|2))
	f.Add(uint8(3), 0.4, []byte{2, 2, 2, 2, 2, 2}, uint8(4), []byte{0, 1, 0, 1}, false, math.Float64bits(1e-9))
	f.Add(uint8(4), 7.0, []byte{9, 0, 0}, uint8(1), []byte{}, true, uint64(1<<62))
	f.Fuzz(func(t *testing.T, family uint8, param float64, loads []byte, budget uint8, own []byte, band bool, epsBits uint64) {
		var rate ratefn.Func
		switch family % 5 {
		case 0:
			rate = ratefn.NewTDMA(param)
		case 1:
			rate = ratefn.Harmonic{R0: 2, Alpha: param}
		case 2:
			rate = ratefn.Geometric{R0: 3, Beta: param}
		case 3:
			rate = ratefn.Linear{R0: 2, Slope: param}
		default:
			values := make([]float64, 1+len(loads))
			for j := range values {
				values[j] = param / float64(1+j%4)
			}
			table, err := ratefn.NewTable("fuzz", values)
			if err != nil {
				return
			}
			rate = table
		}
		C := min(len(loads), 8)
		if C == 0 {
			return
		}
		k := 1 + int(budget)%C
		// User 0 has budget k and deploys own (cut to its budget); filler
		// users of budget C realise the external loads, at most 15 each.
		budgets := []int{k}
		ext := make([]int, C)
		total := 0
		for c := range ext {
			ext[c] = int(loads[c] % 16)
			total += ext[c]
		}
		for n := (total + C - 1) / C; n > 0; n-- {
			budgets = append(budgets, C)
		}
		g, err := NewHeteroGame(C, budgets, rate)
		if err != nil {
			return
		}
		a := g.NewEmptyAlloc()
		placed := 0
		for j, b := range own {
			if placed == k {
				break
			}
			if b%2 == 1 {
				if err := a.Add(0, j%C, 1); err != nil {
					t.Fatal(err)
				}
				placed++
			}
		}
		u, used := 1, 0
		for c, l := range ext {
			for ; l > 0; l-- {
				if used == C {
					u, used = u+1, 0
				}
				if err := a.Add(u, c, 1); err != nil {
					t.Fatal(err)
				}
				used++
			}
		}
		if err := g.CheckAlloc(a); err != nil {
			t.Fatalf("built allocation: %v", err)
		}
		ws := NewWorkspace()
		wantRow, fold, err := g.BestResponseInto(ws, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantRow = slices.Clone(wantRow)
		current := g.Utility(a, 0)
		eps := math.Float64frombits(epsBits)
		if band {
			v1 := 0.0
			for c := range ext {
				v1 = max(v1, g.View().ShareAt(1, ext[c]+1))
			}
			// A threshold fold + s·δ/4 for s in [-8, 7].
			eps = fold + float64(int64(epsBits%16)-8)*quietBand(C, k, v1)/4 - current
		}
		row, best, improves, err := g.DeviationInto(ws, a, 0, eps)
		if err != nil {
			t.Fatal(err)
		}
		if want := fold > current+eps; improves != want {
			t.Fatalf("%s ext %v k %d own %v eps %v: improves %v, fold %v against %v (screened %v)",
				rate.Name(), ext, k, a.Row(0), eps, improves, fold, current+eps, row == nil)
		}
		if improves && (best != fold || !slices.Equal(row, wantRow)) {
			t.Fatalf("%s ext %v k %d: improving row %v value %v, fold row %v value %v", rate.Name(), ext, k, row, best, wantRow, fold)
		}
	})
}
