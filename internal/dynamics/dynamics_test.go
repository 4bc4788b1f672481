package dynamics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

func mustGame(t *testing.T, users, channels, radios int, r ratefn.Func) *core.Game {
	t.Helper()
	g, err := core.NewGame(users, channels, radios, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBestResponseConvergesToNE(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 0.5},
		ratefn.Geometric{R0: 1, Beta: 0.8},
	}
	for _, r := range rates {
		for seed := uint64(0); seed < 5; seed++ {
			g := mustGame(t, 5, 4, 3, r)
			start := RandomAlloc(g, seed)
			res, err := RunBestResponse(g, start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s seed %d: did not converge in %d rounds", r.Name(), seed, res.Rounds)
			}
			ne, err := g.IsNashEquilibrium(res.Final)
			if err != nil {
				t.Fatal(err)
			}
			if !ne {
				t.Fatalf("%s seed %d: converged state is not NE:\n%v", r.Name(), seed, res.Final)
			}
		}
	}
}

func TestBestResponseDoesNotMutateStart(t *testing.T) {
	g := mustGame(t, 3, 3, 2, ratefn.NewTDMA(1))
	start := RandomAlloc(g, 1)
	snapshot := start.Clone()
	if _, err := RunBestResponse(g, start); err != nil {
		t.Fatal(err)
	}
	if !start.Equal(snapshot) {
		t.Fatal("RunBestResponse mutated the caller's allocation")
	}
}

func TestBestResponseFromNEIsQuiet(t *testing.T) {
	g := mustGame(t, 4, 5, 3, ratefn.NewTDMA(1))
	ne, err := core.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBestResponse(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Moves != 0 || res.Rounds != 1 {
		t.Fatalf("starting at NE should converge immediately: %+v", res)
	}
	if !res.Final.Equal(ne) {
		t.Fatal("quiet run changed the allocation")
	}
}

// TestRadioGreedyConvergesAndPotentialIncreases reruns each converged
// run capped at r = 1..Rounds rounds, which stops it after round r, and
// requires Φ non-decreasing from the start through every round.
func TestRadioGreedyConvergesAndPotentialIncreases(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 1},
	}
	for _, r := range rates {
		for seed := uint64(0); seed < 5; seed++ {
			g := mustGame(t, 6, 5, 4, r)
			start := RandomAlloc(g, seed)
			res, err := RunRadioGreedy(g, start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s seed %d: radio-greedy did not converge", r.Name(), seed)
			}
			prev := g.Potential(start)
			for rounds := 1; rounds <= res.Rounds; rounds++ {
				capped, err := RunRadioGreedy(g, start, WithMaxRounds(rounds))
				if err != nil {
					t.Fatal(err)
				}
				phi := g.Potential(capped.Final)
				if phi < prev-1e-9 {
					t.Fatalf("%s seed %d: potential decreased at round %d: %v -> %v",
						r.Name(), seed, rounds, prev, phi)
				}
				prev = phi
				if rounds == res.Rounds && !capped.Final.Equal(res.Final) {
					t.Fatalf("%s seed %d: the run capped at its own %d rounds ends elsewhere", r.Name(), seed, rounds)
				}
			}
		}
	}
}

func TestRadioGreedyTerminalHasNoSingleMoves(t *testing.T) {
	g := mustGame(t, 5, 4, 3, ratefn.NewTDMA(1))
	res, err := RunRadioGreedy(g, RandomAlloc(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	a := res.Final
	for i := 0; i < g.Users(); i++ {
		for from := 0; from < g.Channels(); from++ {
			if a.Radios(i, from) == 0 {
				continue
			}
			for to := 0; to < g.Channels(); to++ {
				if to == from {
					continue
				}
				delta, err := g.BenefitOfMove(a, i, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if delta > core.DefaultEps {
					t.Fatalf("terminal state admits single-radio improvement u%d c%d->c%d (+%v)",
						i+1, from+1, to+1, delta)
				}
			}
		}
	}
}

func TestRadioGreedyTerminalIsLoadBalancedUnderConstantR(t *testing.T) {
	// Single-radio stability implies δ <= 1 under constant R (Lemma 2's
	// contrapositive applies to any radio on an overloaded channel).
	for seed := uint64(0); seed < 10; seed++ {
		g := mustGame(t, 7, 6, 4, ratefn.NewTDMA(1))
		res, err := RunRadioGreedy(g, RandomAlloc(g, seed))
		if err != nil {
			t.Fatal(err)
		}
		maxLoad, _ := res.Final.MaxLoad()
		minLoad, _ := res.Final.MinLoad()
		if maxLoad-minLoad > 1 {
			t.Fatalf("seed %d: terminal loads unbalanced: %v", seed, res.Final.Loads())
		}
	}
}

func TestMaxRoundsCapsRun(t *testing.T) {
	g := mustGame(t, 6, 5, 4, ratefn.NewTDMA(1))
	res, err := RunBestResponse(g, RandomAlloc(g, 2), WithMaxRounds(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	// One round from a random start of this size is typically not quiet;
	// either way the result must be reported consistently.
	if res.Converged && res.Moves != 0 {
		t.Fatal("converged run must end with a quiet round")
	}
}

func TestOptionValidation(t *testing.T) {
	g := mustGame(t, 2, 2, 1, ratefn.NewTDMA(1))
	start := RandomAlloc(g, 0)
	if _, err := RunBestResponse(g, start, WithMaxRounds(0)); err == nil {
		t.Error("zero rounds should error")
	}
	if _, err := RunBestResponse(g, start, WithEps(-1)); err == nil {
		t.Error("negative eps should error")
	}
	if _, err := RunRadioGreedy(g, start, WithMaxRounds(0)); err == nil {
		t.Error("zero rounds should error for radio greedy")
	}
	wrong, err := core.NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBestResponse(g, wrong); err == nil {
		t.Error("mismatched alloc should error")
	}
	if _, err := RunRadioGreedy(g, wrong); err == nil {
		t.Error("mismatched alloc should error for radio greedy")
	}
}

func TestPotentialMatchesSingleRadioMoveForSingletonOwner(t *testing.T) {
	// For a user owning exactly one radio on the source channel and none on
	// the target, ΔU from a single-radio move equals ΔΦ — the
	// potential-game property.
	g := mustGame(t, 3, 3, 2, ratefn.Harmonic{R0: 1, Alpha: 0.4})
	a, err := core.AllocFromMatrix([][]int{
		{1, 1, 0},
		{1, 0, 1},
		{0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for from := 0; from < 3; from++ {
			if a.Radios(i, from) != 1 {
				continue
			}
			for to := 0; to < 3; to++ {
				if to == from || a.Radios(i, to) != 0 {
					continue
				}
				deltaU, err := g.BenefitOfMove(a, i, from, to)
				if err != nil {
					t.Fatal(err)
				}
				moved := a.Clone()
				if err := moved.Move(i, from, to); err != nil {
					t.Fatal(err)
				}
				deltaPhi := Potential(g.Rate(), moved) - Potential(g.Rate(), a)
				if math.Abs(deltaU-deltaPhi) > 1e-9 {
					t.Fatalf("u%d c%d->c%d: ΔU=%v ΔΦ=%v", i+1, from+1, to+1, deltaU, deltaPhi)
				}
			}
		}
	}
}

func TestRandomAllocProperties(t *testing.T) {
	f := func(seed uint64) bool {
		g := mustGame(t, 4, 5, 3, ratefn.NewTDMA(1))
		a := RandomAlloc(g, seed)
		if a.TotalRadios() != 12 {
			return false
		}
		for i := 0; i < 4; i++ {
			if a.UserTotal(i) != 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestRandomAllocDeterministicPerSeed(t *testing.T) {
	g := mustGame(t, 3, 4, 2, ratefn.NewTDMA(1))
	if !RandomAlloc(g, 7).Equal(RandomAlloc(g, 7)) {
		t.Fatal("same seed should reproduce the allocation")
	}
}

func TestBestResponseReachesTheoremNEOnConstantRate(t *testing.T) {
	// End-to-end: decentralised play lands on exactly the allocations
	// Theorem 1 characterises.
	for seed := uint64(0); seed < 8; seed++ {
		g := mustGame(t, 6, 5, 3, ratefn.NewTDMA(1))
		res, err := RunBestResponse(g, RandomAlloc(g, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: not converged", seed)
		}
		if ok, v := core.TheoremNE(g, res.Final); !ok {
			t.Fatalf("seed %d: converged allocation fails Theorem 1: %v\n%v", seed, v, res.Final)
		}
	}
}
