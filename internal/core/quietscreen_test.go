package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// This file pins the exchange certificate (RateView.exchangeBound) against
// the DP fold: wherever the certificate gives a bound, the fold's value
// over the same rows is at most that bound, so a quiet verdict the
// certificate decides is the fold's verdict. It pins the certificate's
// channel-summary form to the dense pass over every channel
// (denseExchangeBound) bit for bit, and the workspace's summary cache to a
// fresh build after every kind of mutation. It also pins UtilityOf's plane
// read to the division form.

// denseExchangeBound is the certificate as one pass over all |C| channels,
// reading every channel's share row: the reference the summary form must
// equal in both U and the bound, float bits included.
func denseExchangeBound(rv *RateView, y, load []int, k int) (u, bound float64) {
	if rv.share == nil {
		return rv.utility(y, load), math.Inf(1)
	}
	stride := rv.maxOwn + 1
	concave, placed := true, 0
	v1, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for c, yc := range y {
		m := load[c] - yc
		v := rv.share[m*stride : (m+1)*stride]
		concave = concave && int(rv.concave[m]) >= k
		v1 = max(v1, v[1])
		if yc > 0 {
			u += v[yc]
			lo = min(lo, v[yc]-v[yc-1])
			placed += yc
		}
		if yc < k {
			hi = max(hi, v[yc+1]-v[yc])
		}
	}
	if !concave || !(lo >= 0) {
		return u, math.Inf(1)
	}
	delta := float64(k)*max(hi-lo, 0) + float64(k-placed)*max(hi, 0)
	return u, u + quietBand(len(y), k, v1) + 2*delta
}

// summaryBound runs the summary certificate for row y against channel
// loads load with s built from load, and fails unless it equals the dense
// pass bit for bit.
func summaryBound(t testing.TB, rv *RateView, s *channelSummary, y, load []int, k int) (u, bound float64) {
	t.Helper()
	u, bound = rv.exchangeBound(s, y, load, k)
	wu, wb := denseExchangeBound(rv, y, load, k)
	if math.Float64bits(u) != math.Float64bits(wu) || math.Float64bits(bound) != math.Float64bits(wb) {
		t.Fatalf("%s loads %v k %d row %v: summary (U %v, bound %v), dense (U %v, bound %v)",
			rv.rate.Name(), load, k, y, u, bound, wu, wb)
	}
	return u, bound
}

// foldCase lays out budget k's DP rows against external loads ext on rv and
// returns the fold's row (a copy), its value, the certificate's band δ over
// these rows, and whether every row is flagged concave through k. k must be
// at least 1.
func foldCase(rv *RateView, ws *Workspace, ext []int, k int) (row []int, fold, delta float64, concave bool) {
	C := len(ext)
	ws.ensure(C, k)
	copy(ws.ext[:C], ext)
	v := rv.fillShares(ws, ws.ext[:C], k)
	row, fold = bestResponseDP(ws, v, C, k)
	v1 := 0.0
	concave = true
	for c, m := range ext {
		v1 = max(v1, v[ws.voff[c]+1])
		concave = concave && int(rv.concave[m]) >= k
	}
	return slices.Clone(row), fold, quietBand(C, k, v1), concave
}

// certify returns the utility and the certificate's bound for a user that
// plays row y against external loads ext with budget k, checking the
// summary form against the dense pass.
func certify(t testing.TB, rv *RateView, y, ext []int, k int) (u, bound float64) {
	t.Helper()
	load := make([]int, len(ext))
	for c := range ext {
		load[c] = ext[c] + y[c]
	}
	var s channelSummary
	rv.summarize(&s, load)
	return summaryBound(t, rv, &s, y, load, k)
}

// checkRow checks the certificate on row y against the fold's value fold
// over the same (ext, k): a bound is never below the fold, rows that are
// not all concave through k get none, and no threshold from fold − δ to
// fold + δ/4 is answered quiet (a quiet answer there would be one a looser
// bound could get wrong). It reports whether the verdict at U + DefaultEps
// is quiet.
func checkRow(t *testing.T, rv *RateView, y, ext []int, k int, fold, delta float64, concave bool) bool {
	t.Helper()
	u, bound := certify(t, rv, y, ext, k)
	if !concave && !math.IsInf(bound, 1) {
		t.Fatalf("%s ext %v k %d row %v: bound %v over rows not concave through k", rv.rate.Name(), ext, k, y, bound)
	}
	if fold > bound {
		t.Fatalf("%s ext %v k %d row %v: fold %v above the bound %v (U %v)", rv.rate.Name(), ext, k, y, fold, bound, u)
	}
	for _, lim := range []float64{fold - delta, math.Nextafter(fold, math.Inf(-1)), fold, fold + delta/4} {
		lim = u + (lim - u) // the threshold DeviationInto forms from U and eps
		if bound < lim {
			t.Fatalf("%s ext %v k %d row %v: quiet at %v inside the band of fold %v (δ %v, bound %v)",
				rv.rate.Name(), ext, k, y, lim, fold, delta, bound)
		}
	}
	return bound < u+DefaultEps
}

// forEachRow calls f with every row of C channels holding at most k radios.
// The slice is reused between calls.
func forEachRow(C, k int, f func(y []int)) {
	y := make([]int, C)
	var rec func(c, left int)
	rec = func(c, left int) {
		if c == C {
			f(y)
			return
		}
		for x := 0; x <= left; x++ {
			y[c] = x
			rec(c+1, left-x)
		}
		y[c] = 0
	}
	rec(0, k)
}

// checkCase runs the certificate on rows against the fold for one (ext, k)
// and reports whether the rows are concave through k and whether the
// certificate decides the fold's own row quiet at U + DefaultEps.
func checkCase(t *testing.T, rv *RateView, ws *Workspace, ext []int, k int, rows func(foldRow []int, f func(y []int))) (concave, covered bool) {
	t.Helper()
	foldRow, fold, delta, concave := foldCase(rv, ws, ext, k)
	covered = checkRow(t, rv, foldRow, ext, k, fold, delta, concave)
	rows(foldRow, func(y []int) { checkRow(t, rv, y, ext, k, fold, delta, concave) })
	return concave, covered
}

// checkCoverage requires the certificate to decide the fold's own row in
// every concave case, and every case of the TDMA family to be concave.
func checkCoverage(t *testing.T, rate ratefn.Func, cases, concave, covered int) {
	t.Helper()
	if covered != concave {
		t.Errorf("%s: fold's row certified in %d of %d concave cases, want all", rate.Name(), covered, concave)
	}
	if _, tdma := rate.(ratefn.Constant); tdma && concave != cases {
		t.Errorf("%s: %d of %d cases concave, want all (TDMA rows are concave)", rate.Name(), concave, cases)
	}
	if concave == 0 {
		t.Errorf("%s: no concave case among %d", rate.Name(), cases)
	}
	t.Logf("%s: %d cases, %d concave, %d certified at the fold's row", rate.Name(), cases, concave, covered)
}

// TestQuietScreenExhaustiveSmall runs every external load vector in
// [0, 5]^C for C <= 4, budgets k <= 4 and every row with at most k radios
// under every rate family. The views cover the channel loads ext + y, as a
// game's view covers every load of its allocations.
func TestQuietScreenExhaustiveSmall(t *testing.T) {
	const maxLoad, maxOwn = 5, 4
	ws := NewWorkspace()
	for _, rate := range differentialRates(t) {
		rv := NewRateView(rate, maxLoad+maxOwn, maxOwn)
		cases, concave, covered := 0, 0, 0
		for C := 1; C <= 4; C++ {
			ext := make([]int, C)
			for {
				for k := 1; k <= maxOwn; k++ {
					conc, cov := checkCase(t, rv, ws, ext, k, func(_ []int, f func([]int)) { forEachRow(C, k, f) })
					cases++
					if conc {
						concave++
					}
					if cov {
						covered++
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
		checkCoverage(t, rate, cases, concave, covered)
	}
}

// TestQuietScreenSeededLarge runs seeded random load vectors on 16
// channels with budgets up to 8 under every rate family: the fold's row,
// every row one radio away from it (moved, added or removed) and random
// rows with at most k radios.
func TestQuietScreenSeededLarge(t *testing.T) {
	const C, maxLoad, maxOwn, cases = 16, 40, 8, 400
	ws := NewWorkspace()
	for f, rate := range differentialRates(t) {
		rv := NewRateView(rate, maxLoad+maxOwn, maxOwn)
		rng := des.NewRNG(uint64(0x5c4ee1 + f))
		concave, covered := 0, 0
		for n := 0; n < cases; n++ {
			ext := make([]int, C)
			spread := 1 + rng.Intn(maxLoad)
			for c := range ext {
				ext[c] = rng.Intn(spread + 1)
			}
			k := 1 + rng.Intn(maxOwn)
			conc, cov := checkCase(t, rv, ws, ext, k, func(foldRow []int, f func([]int)) {
				y := slices.Clone(foldRow)
				placed := 0
				for _, x := range y {
					placed += x
				}
				for b := -1; b < C; b++ { // b = -1: no radio removed
					have := placed
					if b >= 0 {
						if y[b] == 0 {
							continue
						}
						y[b]--
						have--
						f(y)
					}
					for c := range y {
						if c != b && have < k {
							y[c]++
							f(y)
							y[c]--
						}
					}
					if b >= 0 {
						y[b]++
					}
				}
				for r := 0; r < 20; r++ {
					clear(y)
					for left := rng.Intn(k + 1); left > 0; left-- {
						y[rng.Intn(C)]++
					}
					f(y)
				}
			})
			if conc {
				concave++
			}
			if cov {
				covered++
			}
		}
		checkCoverage(t, rate, cases, concave, covered)
	}
}

// TestExchangeBoundSummaryMatchesDense pins the summary certificate to the
// dense pass bit for bit on seeded load vectors of 16 and 64 channels
// under every rate family: one summary per load vector serves random rows
// (each channel holding at most its load, at most k radios in all), half
// of them stacked on the channels with the largest t_c so that the walk
// skips occupied channels. Loads include empty channels, whose harmonic and
// geometric rows are not concave through 3, so some rows leave a flagged
// channel unoccupied. A plane-less view of the same loads runs too.
func TestExchangeBoundSummaryMatchesDense(t *testing.T) {
	flaggedOutside, total := 0, 0
	for f, rate := range differentialRates(t) {
		for _, sz := range []struct{ C, maxLoad, maxOwn, cases int }{{16, 40, 8, 150}, {64, 200, 16, 40}} {
			rv := NewRateView(rate, sz.maxLoad, sz.maxOwn)
			saved := maxShareTableLen
			maxShareTableLen = 1
			planeless := NewRateView(rate, sz.maxLoad, sz.maxOwn)
			maxShareTableLen = saved
			if rv.share == nil || planeless.share != nil {
				t.Fatalf("%s C=%d: plane %v, plane-less view's plane %v", rate.Name(), sz.C, rv.share != nil, planeless.share != nil)
			}
			rng := des.NewRNG(uint64(0x5a11 + 97*f + sz.C))
			walked := 0
			var s, none channelSummary
			load, y := make([]int, sz.C), make([]int, sz.C)
			for n := 0; n < sz.cases; n++ {
				spread := rng.Intn(sz.maxLoad + 1)
				for c := range load {
					load[c] = rng.Intn(spread + 1)
				}
				rv.summarize(&s, load)
				planeless.summarize(&none, load)
				for r := 0; r < 30; r++ {
					k := 1 + rng.Intn(sz.maxOwn)
					clear(y)
					top := r%2 == 0
					for left, tries := rng.Intn(k+1), 0; left > 0 && tries < 4*sz.C; tries++ {
						c := rng.Intn(sz.C)
						if top {
							c = s.order[rng.Intn(min(k, sz.C))]
						}
						if y[c] < load[c] {
							y[c]++
							left--
						}
					}
					_, bound := summaryBound(t, rv, &s, y, load, k)
					summaryBound(t, planeless, &none, y, load, k)
					total++
					occupiedFlagged, skipped := 0, 0
					for c, yc := range y {
						if yc > 0 && int(rv.concave[load[c]]) < k {
							occupiedFlagged++
						}
					}
					if s.bad[k] > occupiedFlagged {
						flaggedOutside++
					}
					for _, c := range s.order {
						if y[c] == 0 {
							break
						}
						skipped++
					}
					if skipped > 0 && !math.IsInf(bound, 1) {
						walked++
					}
				}
			}
			if walked == 0 {
				t.Errorf("%s C=%d: no bounded row skipped an occupied channel in the walk", rate.Name(), sz.C)
			}
		}
	}
	if flaggedOutside == 0 {
		t.Errorf("no row of %d left a flagged channel unoccupied", total)
	}
	t.Logf("%d rows, %d with a flagged channel unoccupied", total, flaggedOutside)
}

// TestSummaryCacheFollowsMutations: one workspace runs the deviation test
// of every user between random mutations of one allocation by SetRow, Add,
// Move, AppendRow and RemoveRowSwap. Its cached summary must give the
// dense pass's certificate bit for bit, and every verdict (row, value,
// improves) must be a fresh workspace's.
func TestSummaryCacheFollowsMutations(t *testing.T) {
	const C, maxOwn, maxUsers = 6, 4, 24
	for f, rate := range differentialRates(t) {
		rv := NewRateView(rate, maxUsers*maxOwn, maxOwn)
		rng := des.NewRNG(uint64(0xcac4e + f))
		a, err := NewAlloc(8, C)
		if err != nil {
			t.Fatal(err)
		}
		budgets := make([]int, a.Users())
		for i := range budgets {
			budgets[i] = 1 + i%maxOwn
		}
		ws := NewWorkspace()
		check := func(op string) {
			t.Helper()
			for i, k := range budgets {
				summaryBound(t, rv, ws.summary(rv, a), a.m[i], a.load, k)
				row, best, improves := rv.DeviationInto(ws, a, i, k, DefaultEps)
				row = slices.Clone(row)
				frow, fbest, fimproves := rv.DeviationInto(NewWorkspace(), a, i, k, DefaultEps)
				if !slices.Equal(row, frow) || math.Float64bits(best) != math.Float64bits(fbest) || improves != fimproves {
					t.Fatalf("%s after %s, user %d row %v: cached (%v, %v, %v), fresh (%v, %v, %v)",
						rate.Name(), op, i, a.Row(i), row, best, improves, frow, fbest, fimproves)
				}
			}
		}
		ops := map[string]int{}
		for step := 0; step < 300; step++ {
			i := rng.Intn(a.Users())
			var op string
			switch r := rng.Intn(5); {
			case r == 0:
				op = "SetRow"
				row := make([]int, C)
				for n := rng.Intn(budgets[i] + 1); n > 0; n-- {
					row[rng.Intn(C)]++
				}
				err = a.SetRow(i, row)
			case r == 1 && a.UserTotal(i) < budgets[i]:
				op = "Add"
				err = a.Add(i, rng.Intn(C), 1)
			case r == 1:
				op = "Add"
				c := 0
				for a.Radios(i, c) == 0 {
					c++
				}
				err = a.Add(i, c, -1)
			case r == 2 && a.UserTotal(i) > 0:
				op = "Move"
				from := rng.Intn(C)
				for a.Radios(i, from) == 0 {
					from = (from + 1) % C
				}
				err = a.Move(i, from, (from+1+rng.Intn(C-1))%C)
			case r == 3 && a.Users() < maxUsers:
				op = "AppendRow"
				a.AppendRow()
				budgets = append(budgets, 1+rng.Intn(maxOwn))
			case r == 4 && a.Users() > 1:
				op = "RemoveRowSwap"
				err = a.RemoveRowSwap(i)
				budgets[i] = budgets[len(budgets)-1]
				budgets = budgets[:len(budgets)-1]
			default:
				continue
			}
			if err != nil {
				t.Fatalf("%s step %d: %s: %v", rate.Name(), step, op, err)
			}
			ops[op]++
			check(op)
		}
		for _, op := range []string{"SetRow", "Add", "Move", "AppendRow", "RemoveRowSwap"} {
			if ops[op] == 0 {
				t.Fatalf("%s: no %s among the mutations (%v)", rate.Name(), op, ops)
			}
		}
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
// row past its concave prefix gives no bound for any row of the user, so
// even a threshold of +Inf is not answered quiet, and the deviation test
// runs the fold.
func TestQuietScreenRefusesNonConcaveRows(t *testing.T) {
	ws := NewWorkspace()
	for _, rate := range []ratefn.Func{
		ratefn.Geometric{R0: 3, Beta: 0.5},
		ratefn.Harmonic{R0: 2, Alpha: 2},
		ratefn.Harmonic{R0: 2, Alpha: 0.5},
	} {
		const maxLoad, maxOwn = 64, 8
		rv := NewRateView(rate, maxLoad+3+maxOwn, maxOwn)
		refused := 0
		for m := 0; m <= maxLoad; m++ {
			p := int(rv.concave[m])
			if p >= maxOwn {
				continue
			}
			for k := p + 1; k <= maxOwn; k++ {
				ext := []int{3, m, 1}
				forEachRow(len(ext), k, func(y []int) {
					if _, bound := certify(t, rv, y, ext, k); bound < math.Inf(1) {
						t.Fatalf("%s: row %d is concave through %d, yet k=%d row %v has bound %v", rate.Name(), m, p, k, y, bound)
					}
				})
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
// certificate's band of the fold's value on random games: every such
// verdict must reach the fold, and the deviation test must agree with the
// fold's verdict and, when it improves, return the fold's row and value.
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
					t.Fatalf("%s: certified quiet inside the band", label)
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
// user is quiet, and the certificate decides each verdict without a fold.
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
		t.Fatalf("%d users: %d certified quiet verdicts, %d folds; want all certified, no folds",
			g.Users(), ws.obs.screenQuiet, ws.obs.dpCalls)
	}
}

// divisionUtility is Eq. 3 in the division form, each term rounded before
// the sum: the reference for UtilityOf.
func divisionUtility(rate ratefn.Func, a *Alloc, i int) float64 {
	var u float64
	for c := 0; c < a.Channels(); c++ {
		if ki := a.Radios(i, c); ki > 0 {
			kc := a.Load(c)
			u += float64(float64(ki) / float64(kc) * rate.Rate(kc))
		}
	}
	return u
}

// randomLegalAlloc draws a game of up to 8 channels and 12 users with
// budgets 1..C, each user deploying between none and all of its radios.
func randomLegalAlloc(rng *des.RNG, rate ratefn.Func) (*Game, *Alloc, error) {
	C := 1 + rng.Intn(8)
	budgets := make([]int, 1+rng.Intn(12))
	for i := range budgets {
		budgets[i] = 1 + rng.Intn(C)
	}
	g, err := NewHeteroGame(C, budgets, rate)
	if err != nil {
		return nil, nil, err
	}
	a := g.NewEmptyAlloc()
	for i, k := range budgets {
		for n := rng.Intn(k + 1); n > 0; n-- {
			if err := a.Add(i, rng.Intn(C), 1); err != nil {
				return nil, nil, err
			}
		}
	}
	return g, a, g.CheckAlloc(a)
}

// TestUtilityOfMatchesDivision pins the share-plane UtilityOf (and so
// Game.Utility and the certificate's U) to the division form bit for bit
// on random legal allocations under every rate family.
func TestUtilityOfMatchesDivision(t *testing.T) {
	ws := NewWorkspace()
	for f, rate := range differentialRates(t) {
		rng := des.NewRNG(uint64(0x07117 + f))
		for n := 0; n < 200; n++ {
			g, a, err := randomLegalAlloc(rng, rate)
			if err != nil {
				t.Fatal(err)
			}
			if g.View().share == nil {
				t.Fatalf("%s: game without a share plane", rate.Name())
			}
			for i := 0; i < a.Users(); i++ {
				want := divisionUtility(rate, a, i)
				got := g.Utility(a, i)
				u, _ := g.View().exchangeBound(ws.summary(g.View(), a), a.m[i], a.load, g.Budget(i))
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(u) != math.Float64bits(want) {
					t.Fatalf("%s case %d user %d row %v: UtilityOf %v, certificate U %v, division form %v",
						rate.Name(), n, i, a.Row(i), got, u, want)
				}
			}
		}
	}
}

// TestUtilityOfWithoutPlane: a view built past the share plane's cap still
// divides (bit for bit the plane's values) and gives the certificate no
// bound, so every deviation test reaches the fold and agrees with it.
func TestUtilityOfWithoutPlane(t *testing.T) {
	ws := NewWorkspace()
	for f, rate := range differentialRates(t) {
		rng := des.NewRNG(uint64(0x9a7e + f))
		for n := 0; n < 100; n++ {
			g, a, err := randomLegalAlloc(rng, rate)
			if err != nil {
				t.Fatal(err)
			}
			saved := maxShareTableLen
			maxShareTableLen = 1 // too small for any plane
			planeless := newGame(g.channels, g.budgets, rate)
			maxShareTableLen = saved
			if planeless.View().share != nil {
				t.Fatalf("%s: plane built past the cap", rate.Name())
			}
			for i := 0; i < a.Users(); i++ {
				want := g.Utility(a, i)
				if got := planeless.Utility(a, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s case %d user %d: plane-less UtilityOf %v, plane %v", rate.Name(), n, i, got, want)
				}
				if got := divisionUtility(rate, a, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s case %d user %d: division form %v, plane %v", rate.Name(), n, i, got, want)
				}
				wantRow, fold, err := g.BestResponseInto(ws, a, i)
				if err != nil {
					t.Fatal(err)
				}
				wantRow = slices.Clone(wantRow)
				ws.obs = wsCounts{}
				row, best, improves, err := planeless.DeviationInto(ws, a, i, DefaultEps)
				if err != nil {
					t.Fatal(err)
				}
				if ws.obs.screenQuiet != 0 || ws.obs.dpCalls != 1 {
					t.Fatalf("%s case %d user %d: %d certified verdicts, %d folds; want the fold alone",
						rate.Name(), n, i, ws.obs.screenQuiet, ws.obs.dpCalls)
				}
				if best != fold || !slices.Equal(row, wantRow) || improves != (fold > want+DefaultEps) {
					t.Fatalf("%s case %d user %d: row %v value %v improves %v, fold row %v value %v",
						rate.Name(), n, i, row, best, improves, wantRow, fold)
				}
			}
		}
	}
}

// FuzzQuietScreen: for a fuzzed rate family, external loads, budget,
// current row and tolerance, every user's summary certificate equals the
// dense pass bit for bit, the deviation test's verdict is the fold's (a
// certified quiet verdict implies the fold is quiet), and an improving
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
		for i := 0; i < g.Users(); i++ {
			summaryBound(t, g.View(), ws.summary(g.View(), a), a.m[i], a.load, g.Budget(i))
		}
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
			t.Fatalf("%s ext %v k %d own %v eps %v: improves %v, fold %v against %v (certified %v)",
				rate.Name(), ext, k, a.Row(0), eps, improves, fold, current+eps, row == nil)
		}
		if improves && (best != fold || !slices.Equal(row, wantRow)) {
			t.Fatalf("%s ext %v k %d: improving row %v value %v, fold row %v value %v", rate.Name(), ext, k, row, best, wantRow, fold)
		}
	})
}
