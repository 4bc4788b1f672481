package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// randomInstance draws a small random game and a random full-deployment
// allocation from a seed.
func randomInstance(seed uint64, rate ratefn.Func) (*Game, *Alloc, error) {
	rng := des.NewRNG(seed)
	users := 1 + rng.Intn(4)
	channels := 1 + rng.Intn(4)
	radios := 1 + rng.Intn(channels)
	g, err := NewGame(users, channels, radios, rate)
	if err != nil {
		return nil, nil, err
	}
	a := g.NewEmptyAlloc()
	for i := 0; i < users; i++ {
		for j := 0; j < radios; j++ {
			if err := a.Add(i, rng.Intn(channels), 1); err != nil {
				return nil, nil, err
			}
		}
	}
	return g, a, nil
}

// TestPropertyTheoremMatchesOracleConstantRate samples random instances and
// random allocations under constant R and cross-checks the Theorem 1
// verdict against the exact rational-arithmetic oracle — the sampled
// companion to the exhaustive E2 sweep.
func TestPropertyTheoremMatchesOracleConstantRate(t *testing.T) {
	f := func(seed uint64) bool {
		g, a, err := randomInstance(seed, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		thm, _ := TheoremNE(g, a)
		oracle, ok, err := g.IsNashEquilibriumRat(a)
		if err != nil || !ok {
			return false
		}
		if thm != oracle {
			t.Logf("seed %d: theorem %v oracle %v\n%v", seed, thm, oracle, a)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWelfareIdentity checks Σ_i U_i == Σ_{loaded c} R(k_c) on
// random allocations across rate families.
func TestPropertyWelfareIdentity(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(2),
		ratefn.Harmonic{R0: 2, Alpha: 0.7},
		ratefn.Geometric{R0: 2, Beta: 0.6},
		ratefn.Linear{R0: 2, Slope: 0.5},
	}
	f := func(seed uint64) bool {
		rate := rates[int(seed%uint64(len(rates)))]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < g.Users(); i++ {
			sum += g.Utility(a, i)
		}
		return math.Abs(sum-g.Welfare(a)) < 1e-9
	}
	if err := quick.Check(f, quickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBestResponseIdempotent: applying a best response and then
// recomputing it must not find further improvement.
func TestPropertyBestResponseIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		g, a, err := randomInstance(seed, ratefn.Harmonic{R0: 1, Alpha: 0.4})
		if err != nil {
			return false
		}
		i := int(seed) % g.Users()
		if i < 0 {
			i = -i
		}
		row, best, err := g.BestResponse(a, i)
		if err != nil {
			return false
		}
		if err := a.SetRow(i, row); err != nil {
			return false
		}
		_, again, err := g.BestResponse(a, i)
		if err != nil {
			return false
		}
		return again <= best+1e-9
	}
	if err := quick.Check(f, quickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBestResponseBeatsSingleMoves: the DP optimum is at least as
// good as every single-radio move (Eq. 7 deltas are never positive at a
// best response).
func TestPropertyBestResponseBeatsSingleMoves(t *testing.T) {
	f := func(seed uint64) bool {
		g, a, err := randomInstance(seed, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		i := int(seed % uint64(g.Users()))
		row, _, err := g.BestResponse(a, i)
		if err != nil {
			return false
		}
		if err := a.SetRow(i, row); err != nil {
			return false
		}
		for b := 0; b < g.Channels(); b++ {
			if a.Radios(i, b) == 0 {
				continue
			}
			for c := 0; c < g.Channels(); c++ {
				if c == b {
					continue
				}
				delta, err := g.BenefitOfMove(a, i, b, c)
				if err != nil {
					return false
				}
				if delta > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 150)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAlgorithm1Invariants: full deployment, balance, theorem-NE,
// and welfare optimality (constant R, conflict regime) for random sizes.
func TestPropertyAlgorithm1Invariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		users := 1 + rng.Intn(8)
		channels := 1 + rng.Intn(8)
		radios := 1 + rng.Intn(channels)
		g, err := NewGame(users, channels, radios, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		a, err := Algorithm1(g, WithTieBreak(TieRandom), WithSeed(seed))
		if err != nil {
			return false
		}
		for i := 0; i < users; i++ {
			if a.UserTotal(i) != radios {
				return false
			}
		}
		maxLoad, _ := a.MaxLoad()
		minLoad, _ := a.MinLoad()
		if maxLoad-minLoad > 1 {
			return false
		}
		if ok, _ := TheoremNE(g, a); !ok {
			return false
		}
		if g.HasConflict() {
			opt, _ := OptimalWelfareAllPlaced(g)
			if math.Abs(g.Welfare(a)-opt) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 150)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMoveConservation: moving a radio preserves totals and loads.
func TestPropertyMoveConservation(t *testing.T) {
	f := func(seed uint64) bool {
		g, a, err := randomInstance(seed, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		rng := des.NewRNG(seed + 1)
		i := rng.Intn(g.Users())
		from := -1
		for c := 0; c < g.Channels(); c++ {
			if a.Radios(i, c) > 0 {
				from = c
				break
			}
		}
		if from < 0 || g.Channels() < 2 {
			return true
		}
		to := (from + 1) % g.Channels()
		before := a.TotalRadios()
		userBefore := a.UserTotal(i)
		if err := a.Move(i, from, to); err != nil {
			return false
		}
		return a.TotalRadios() == before && a.UserTotal(i) == userBefore
	}
	if err := quick.Check(f, quickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUtilityRatAgreesWithFloat cross-checks exact and float
// utilities on random allocations for exact-capable rate functions.
func TestPropertyUtilityRatAgreesWithFloat(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(3),
		ratefn.Harmonic{R0: 3, Alpha: 0.5},
		ratefn.Linear{R0: 3, Slope: 0.75},
	}
	f := func(seed uint64) bool {
		rate := rates[int(seed%uint64(len(rates)))]
		g, a, err := randomInstance(seed, rate)
		if err != nil {
			return false
		}
		for i := 0; i < g.Users(); i++ {
			exact, ok := g.UtilityRat(a, i)
			if !ok {
				return false
			}
			ef, _ := exact.Float64()
			if math.Abs(ef-g.Utility(a, i)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 150)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOccupancyDiagramComplete: the rendering shows every radio
// exactly once.
func TestPropertyOccupancyDiagramComplete(t *testing.T) {
	f := func(seed uint64) bool {
		g, a, err := randomInstance(seed, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		out := OccupancyDiagram(a)
		for i := 0; i < g.Users(); i++ {
			want := a.UserTotal(i)
			got := countOccurrences(out, userLabel(i))
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// userLabel renders "u<i+1>" with a trailing space to avoid matching u1 as
// a prefix of u10 (the diagram pads every cell).
func userLabel(i int) string {
	label := "u"
	n := i + 1
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return label + string(digits) + " "
}

func countOccurrences(s, sub string) int {
	count := 0
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			count++
		}
	}
	return count
}
