package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/combin"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// bruteBestResponse enumerates every legal row for user i and returns the
// best utility. Reference implementation for the DP.
func bruteBestResponse(t *testing.T, g *Game, a *Alloc, i int) float64 {
	t.Helper()
	best := math.Inf(-1)
	work := a.Clone()
	for total := 0; total <= g.Radios(); total++ {
		err := combin.Compositions(total, g.Channels(), func(row []int) bool {
			if err := work.SetRow(i, row); err != nil {
				t.Fatal(err)
			}
			if u := g.Utility(work, i); u > best {
				best = u
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return best
}

func TestBestResponseMatchesBruteForce(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 1},
		ratefn.Harmonic{R0: 2, Alpha: 0.1},
		ratefn.Geometric{R0: 1, Beta: 0.5},
	}
	g0, a := figure1Game(t)
	for _, r := range rates {
		g := mustGame(t, g0.Users(), g0.Channels(), g0.Radios(), r)
		for i := 0; i < g.Users(); i++ {
			row, got, err := g.BestResponse(a, i)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteBestResponse(t, g, a, i)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s u%d: DP best %v != brute force %v", r.Name(), i+1, got, want)
			}
			// The reported row must achieve the reported value.
			work := a.Clone()
			if err := work.SetRow(i, row); err != nil {
				t.Fatal(err)
			}
			if u := g.Utility(work, i); math.Abs(u-got) > 1e-9 {
				t.Errorf("%s u%d: row %v achieves %v, DP claimed %v", r.Name(), i+1, row, u, got)
			}
		}
	}
}

func TestBestResponseUsesAllRadiosWhenRatePositive(t *testing.T) {
	// Lemma 1: with strictly positive rates the optimum deploys the full
	// budget. Exercise random small instances.
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		users := 1 + rng.Intn(4)
		channels := 1 + rng.Intn(5)
		radios := 1 + rng.Intn(channels)
		g, err := NewGame(users, channels, radios, ratefn.Harmonic{R0: 1, Alpha: 0.3})
		if err != nil {
			return false
		}
		a := g.NewEmptyAlloc()
		for i := 0; i < users; i++ {
			for j := 0; j < radios; j++ {
				if err := a.Add(i, rng.Intn(channels), 1); err != nil {
					return false
				}
			}
		}
		row, _, err := g.BestResponse(a, 0)
		if err != nil {
			return false
		}
		total := 0
		for _, x := range row {
			total += x
		}
		return total == radios
	}
	if err := quick.Check(f, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
	}
}

func TestBestResponseSpreadsUnderConstantRate(t *testing.T) {
	// Facing an empty system, the best response under constant R is one
	// radio per channel (each alone earning R(1)).
	g := mustGame(t, 2, 4, 3, ratefn.NewTDMA(5))
	a := g.NewEmptyAlloc()
	row, util, err := g.BestResponse(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(util-15) > 1e-12 {
		t.Fatalf("best utility = %v, want 15 (three exclusive channels)", util)
	}
	for _, x := range row {
		if x > 1 {
			t.Fatalf("best response %v stacks radios on an empty system", row)
		}
	}
}

func TestBestResponseErrors(t *testing.T) {
	g, a := figure1Game(t)
	if _, _, err := g.BestResponse(a, -1); err == nil {
		t.Error("negative user should error")
	}
	if _, _, err := g.BestResponse(a, 99); err == nil {
		t.Error("out-of-range user should error")
	}
	small, err := NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.BestResponse(small, 0); err == nil {
		t.Error("mismatched alloc should error")
	}
}

func TestHeteroBestResponseErrors(t *testing.T) {
	g := mustHetero(t, 3, []int{2, 1}, ratefn.NewTDMA(1))
	a := g.NewEmptyAlloc()
	if _, _, err := g.BestResponse(a, -1); err == nil {
		t.Error("negative user should error")
	}
	if _, _, err := g.BestResponse(a, 5); err == nil {
		t.Error("out-of-range user should error")
	}
	wrong, err := NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.BestResponse(wrong, 0); err == nil {
		t.Error("mismatched alloc should error")
	}
	if _, err := g.FindDeviation(a, -1); err == nil {
		t.Error("negative eps should error")
	}
}

func TestFindDeviationOnFigure1(t *testing.T) {
	// Figure 1 is not a NE, so a deviation must exist; applying the
	// deviation must realise the promised gain.
	g, a := figure1Game(t)
	dev, err := g.FindDeviation(a, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if dev == nil {
		t.Fatal("no deviation found on the non-NE Figure 1 example")
	}
	before := g.Utility(a, dev.User)
	work := a.Clone()
	if err := work.SetRow(dev.User, dev.Better); err != nil {
		t.Fatal(err)
	}
	after := g.Utility(work, dev.User)
	if math.Abs((after-before)-dev.Gain) > 1e-9 {
		t.Fatalf("deviation gain %v but realised %v", dev.Gain, after-before)
	}
	if dev.String() == "" {
		t.Error("empty deviation string")
	}
}

func TestFindDeviationTolerance(t *testing.T) {
	g, a := figure1Game(t)
	if _, err := g.FindDeviation(a, -1); err == nil {
		t.Error("negative eps should error")
	}
	// With an absurdly large tolerance everything is an equilibrium.
	dev, err := g.FindDeviation(a, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if dev != nil {
		t.Error("huge tolerance should suppress all deviations")
	}
}

func TestUtilityRat(t *testing.T) {
	g, a := figure1Game(t)
	for i := 0; i < g.Users(); i++ {
		exact, ok := g.UtilityRat(a, i)
		if !ok {
			t.Fatal("TDMA should support exact arithmetic")
		}
		f, _ := exact.Float64()
		if math.Abs(f-g.Utility(a, i)) > 1e-9 {
			t.Errorf("u%d: exact %v vs float %v", i+1, f, g.Utility(a, i))
		}
	}
}

func TestUtilityRatUnsupported(t *testing.T) {
	tbl, err := ratefn.NewTable("t", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	g := mustGame(t, 2, 2, 1, tbl)
	a := g.NewEmptyAlloc()
	if _, ok := g.UtilityRat(a, 0); ok {
		t.Fatal("table rate should not claim exact support")
	}
	if _, _, ok, _ := g.BestResponseRat(a, 0); ok {
		t.Fatal("table rate should not claim exact best response")
	}
	if _, ok, _ := g.IsNashEquilibriumRat(a); ok {
		t.Fatal("table rate should not claim exact NE decision")
	}
}

func TestBestResponseRatMatchesFloat(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 0.5},
	}
	g0, a := figure1Game(t)
	for _, r := range rates {
		g := mustGame(t, g0.Users(), g0.Channels(), g0.Radios(), r)
		for i := 0; i < g.Users(); i++ {
			_, floatBest, err := g.BestResponse(a, i)
			if err != nil {
				t.Fatal(err)
			}
			_, ratBest, ok, err := g.BestResponseRat(a, i)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("rate should support exact arithmetic")
			}
			f, _ := ratBest.Float64()
			if math.Abs(f-floatBest) > 1e-9 {
				t.Errorf("%s u%d: exact BR %v vs float BR %v", r.Name(), i+1, f, floatBest)
			}
		}
	}
}

func TestBestResponseRatErrors(t *testing.T) {
	g, _ := figure1Game(t)
	small, err := NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := g.BestResponseRat(small, 0); err == nil {
		t.Error("mismatched alloc should error")
	}
	a := g.NewEmptyAlloc()
	if _, _, _, err := g.BestResponseRat(a, -1); err == nil {
		t.Error("bad user should error")
	}
}

func TestExactAndFloatOraclesAgreeOnSmallGames(t *testing.T) {
	// Enumerate every allocation of tiny games and require the float oracle
	// (eps = DefaultEps) and the big.Rat oracle to return identical NE
	// verdicts. This pins down that float tolerance never flips a decision
	// at these scales.
	configs := []struct {
		users, channels, radios int
		rate                    ratefn.Func
	}{
		{2, 2, 2, ratefn.NewTDMA(1)},
		{2, 3, 2, ratefn.NewTDMA(1)},
		{3, 2, 2, ratefn.Harmonic{R0: 1, Alpha: 1}},
		{2, 3, 2, ratefn.Harmonic{R0: 1, Alpha: 0.25}},
	}
	for _, cfg := range configs {
		g := mustGame(t, cfg.users, cfg.channels, cfg.radios, cfg.rate)
		err := forEachAlloc(g, 1_000_000, func(a *Alloc) bool {
			floatNE, err := g.IsNashEquilibrium(a)
			if err != nil {
				t.Fatal(err)
			}
			ratNE, ok, err := g.IsNashEquilibriumRat(a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("rate should support exact arithmetic")
			}
			if floatNE != ratNE {
				t.Fatalf("%s %dx%dx%d: float oracle %v != exact oracle %v for\n%v",
					cfg.rate.Name(), cfg.users, cfg.channels, cfg.radios, floatNE, ratNE, a)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTheorem1EquivalenceConstantRate(t *testing.T) {
	// Experiment E2: under constant R (the paper's headline regime), the
	// Theorem 1 characterisation must coincide with the exact best-response
	// oracle on every allocation of every tiny game.
	if testing.Short() {
		t.Skip("exhaustive equivalence sweep")
	}
	configs := []struct{ users, channels, radios int }{
		{2, 2, 2},
		{2, 3, 2},
		{2, 3, 3},
		{3, 2, 2},
		{3, 3, 2},
		{4, 2, 2},
		{2, 4, 2},
		{1, 3, 2},
		// 4x3x2 hosts the exception-user spare-move gap (a user owning both
		// radios of a load-2 minimum channel); see exceptionSpareMove.
		{4, 3, 2},
		{3, 3, 3},
	}
	for _, cfg := range configs {
		g := mustGame(t, cfg.users, cfg.channels, cfg.radios, ratefn.NewTDMA(1))
		checked, neCount := 0, 0
		err := forEachAlloc(g, 5_000_000, func(a *Alloc) bool {
			checked++
			thmNE, _ := TheoremNE(g, a)
			oracleNE, ok, err := g.IsNashEquilibriumRat(a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("constant rate must support exact arithmetic")
			}
			if thmNE != oracleNE {
				t.Fatalf("%dx%dx%d: Theorem 1 says %v, oracle says %v for\n%v",
					cfg.users, cfg.channels, cfg.radios, thmNE, oracleNE, a)
			}
			if oracleNE {
				neCount++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if neCount == 0 {
			t.Errorf("%dx%dx%d: no NE found among %d allocations; game should always have one",
				cfg.users, cfg.channels, cfg.radios, checked)
		}
	}
}
