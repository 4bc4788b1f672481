package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

func TestAlgorithm1ProducesTheoremNE(t *testing.T) {
	// Theorem claim: Algorithm 1 lands on a Pareto-optimal NE. Check the
	// theorem conditions and the exact oracle across a grid of game sizes
	// and all tie-break policies.
	ties := []TieBreak{TieFirst, TieLast, TieRandom}
	for users := 1; users <= 5; users++ {
		for channels := 1; channels <= 5; channels++ {
			for radios := 1; radios <= channels; radios++ {
				g := mustGame(t, users, channels, radios, ratefn.NewTDMA(1))
				for _, tie := range ties {
					a, err := Algorithm1(g, WithTieBreak(tie), WithSeed(7))
					if err != nil {
						t.Fatalf("%dx%dx%d %v: %v", users, channels, radios, tie, err)
					}
					if ok, v := TheoremNE(g, a); !ok {
						t.Errorf("%dx%dx%d %v: output fails Theorem 1: %v\n%v",
							users, channels, radios, tie, v, a)
					}
					ne, err := g.IsNashEquilibrium(a)
					if err != nil {
						t.Fatal(err)
					}
					if !ne {
						dev, _ := g.FindDeviation(a, DefaultEps)
						t.Errorf("%dx%dx%d %v: output is not NE: %v\n%v",
							users, channels, radios, tie, dev, a)
					}
				}
			}
		}
	}
}

func TestAlgorithm1FullDeploymentAndBalance(t *testing.T) {
	g := mustGame(t, 7, 6, 4, ratefn.NewTDMA(1))
	a, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Users(); i++ {
		if a.UserTotal(i) != g.Radios() {
			t.Errorf("u%d deploys %d radios, want %d", i+1, a.UserTotal(i), g.Radios())
		}
	}
	maxLoad, _ := a.MaxLoad()
	minLoad, _ := a.MinLoad()
	if maxLoad-minLoad > 1 {
		t.Errorf("loads not balanced: max %d, min %d", maxLoad, minLoad)
	}
	// 28 radios over 6 channels: loads must be four 5s and two 4s.
	if maxLoad != 5 || minLoad != 4 {
		t.Errorf("loads = %v, want {5,5,5,5,4,4} in some order", a.Loads())
	}
}

func TestAlgorithm1NeverStacksRadios(t *testing.T) {
	// Run from an empty allocation the algorithm never needs the exception
	// clause: every user ends with at most one radio per channel.
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		users := 1 + rng.Intn(6)
		channels := 1 + rng.Intn(6)
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
			for c := 0; c < channels; c++ {
				if a.Radios(i, c) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithm1NEUnderDecreasingRates(t *testing.T) {
	// The all-singles load-balanced allocations Algorithm 1 produces are NE
	// for any non-increasing rate function, not just constant ones.
	rates := []ratefn.Func{
		ratefn.Harmonic{R0: 1, Alpha: 1},    // sharp decay
		ratefn.Harmonic{R0: 1, Alpha: 0.1},  // mild decay
		ratefn.Geometric{R0: 1, Beta: 0.5},  // exponential decay
		ratefn.Geometric{R0: 1, Beta: 0.95}, // gentle decay
	}
	for _, r := range rates {
		for _, dims := range []struct{ n, c, k int }{{4, 5, 4}, {7, 6, 4}, {3, 3, 2}, {5, 4, 3}} {
			g := mustGame(t, dims.n, dims.c, dims.k, r)
			a, err := Algorithm1(g)
			if err != nil {
				t.Fatal(err)
			}
			ne, err := g.IsNashEquilibrium(a)
			if err != nil {
				t.Fatal(err)
			}
			if !ne {
				dev, _ := g.FindDeviation(a, DefaultEps)
				t.Errorf("%s %dx%dx%d: Algorithm 1 output not NE: %v",
					r.Name(), dims.n, dims.c, dims.k, dev)
			}
		}
	}
}

func TestAlgorithm1OrderIndependenceOfNEProperty(t *testing.T) {
	g := mustGame(t, 4, 5, 3, ratefn.NewTDMA(1))
	orders := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
	}
	for _, order := range orders {
		a, err := Algorithm1(g, WithOrder(order))
		if err != nil {
			t.Fatal(err)
		}
		if ok, v := TheoremNE(g, a); !ok {
			t.Errorf("order %v: not a theorem NE: %v", order, v)
		}
	}
}

func TestAlgorithm1RandomTieBreakDeterministicPerSeed(t *testing.T) {
	g := mustGame(t, 5, 5, 3, ratefn.NewTDMA(1))
	a1, err := Algorithm1(g, WithTieBreak(TieRandom), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Algorithm1(g, WithTieBreak(TieRandom), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("same seed produced different allocations")
	}
}

func TestAlgorithm1Errors(t *testing.T) {
	g := mustGame(t, 3, 3, 2, ratefn.NewTDMA(1))
	if _, err := Algorithm1(g, WithTieBreak(TieBreak(99))); err == nil {
		t.Error("unknown tie break should error")
	}
	if _, err := Algorithm1(g, WithOrder([]int{0, 1})); err == nil {
		t.Error("short order should error")
	}
	if _, err := Algorithm1(g, WithOrder([]int{0, 1, 1})); err == nil {
		t.Error("duplicate order should error")
	}
	if _, err := Algorithm1(g, WithOrder([]int{0, 1, 9})); err == nil {
		t.Error("out-of-range order should error")
	}
}

func TestAlgorithm1Welfare(t *testing.T) {
	// Under constant R every channel gets occupied (|N|k > |C|), so the NE
	// welfare equals the all-placed optimum: price of anarchy 1 (Theorem 2).
	g := mustGame(t, 7, 6, 4, ratefn.NewTDMA(2))
	a, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	poa, err := PriceOfAnarchy(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-1) > 1e-12 {
		t.Fatalf("price of anarchy = %v, want 1 under constant R", poa)
	}
}

func TestAlgorithm1LiteralRuleCanBreakNE(t *testing.T) {
	// Reproduction finding (experiment E10): the paper's pseudocode places a
	// radio on *any* least-loaded channel. With random tie-breaking this can
	// stack two of a user's radios on one channel, and the result is not a
	// NE. Scan seeds until the literal rule exhibits the failure — it must,
	// for this configuration — and confirm the corrected rule never does.
	g := mustGame(t, 2, 5, 4, ratefn.NewTDMA(1))
	literalFailed := false
	for seed := uint64(0); seed < 64 && !literalFailed; seed++ {
		a, err := Algorithm1(g, WithTieBreak(TieRandom), WithSeed(seed), WithLiteralRule())
		if err != nil {
			t.Fatal(err)
		}
		ne, err := g.IsNashEquilibrium(a)
		if err != nil {
			t.Fatal(err)
		}
		if !ne {
			literalFailed = true
		}

		corrected, err := Algorithm1(g, WithTieBreak(TieRandom), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		ne, err = g.IsNashEquilibrium(corrected)
		if err != nil {
			t.Fatal(err)
		}
		if !ne {
			dev, _ := g.FindDeviation(corrected, DefaultEps)
			t.Fatalf("corrected rule produced a non-NE at seed %d: %v\n%v", seed, dev, corrected)
		}
	}
	if !literalFailed {
		t.Error("literal rule never failed in 64 seeds; expected at least one non-NE (2x5x4 is a known failing configuration)")
	}
}

func TestTieBreakString(t *testing.T) {
	for _, tb := range []TieBreak{TieFirst, TieRandom, TieLast, TieBreak(42)} {
		if tb.String() == "" {
			t.Errorf("empty string for %d", int(tb))
		}
	}
}
