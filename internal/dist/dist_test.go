package dist

import (
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

func testGame(t *testing.T, n, c, k int) *core.Game {
	t.Helper()
	g, err := core.NewGame(n, c, k, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCoordinatorRejectsMixedBudgets: the hello frame announces one budget
// for every device, so a game whose budgets differ is refused up front.
func TestCoordinatorRejectsMixedBudgets(t *testing.T) {
	g, err := core.NewHeteroGame(4, []int{2, 1}, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(g); err == nil {
		t.Fatal("mixed-budget game accepted")
	}
}

// TestGreedyRingMatchesAlgorithm1 is the protocol's headline property: an
// all-greedy ring reproduces the centralised Algorithm 1 exactly.
func TestGreedyRingMatchesAlgorithm1(t *testing.T) {
	for _, cfg := range []struct{ n, c, k int }{
		{4, 4, 2}, {7, 6, 4}, {12, 8, 5}, {3, 5, 5},
	} {
		g := testGame(t, cfg.n, cfg.c, cfg.k)
		res, err := RunLocal(g, UniformPolicies(g.Users(), func(int) Policy {
			return &GreedyPolicy{}
		}))
		if err != nil {
			t.Fatal(err)
		}
		central, err := core.Algorithm1(g)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Alloc.Equal(central) {
			t.Fatalf("%dx%dx%d: ring\n%v\ncentral\n%v", cfg.n, cfg.c, cfg.k, res.Alloc, central)
		}
		if !res.Stats.Converged || res.Stats.Rounds != 2 {
			t.Fatalf("greedy ring stats: %+v, want convergence in exactly 2 rounds", res.Stats)
		}
	}
}

// TestBestResponseRingConverges checks the best-response ring lands on a
// Nash equilibrium and that every agent sees the same broadcast.
func TestBestResponseRingConverges(t *testing.T) {
	r := ratefn.Harmonic{R0: 1, Alpha: 0.3}
	g, err := core.NewGame(6, 5, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLocal(g, UniformPolicies(g.Users(), func(int) Policy {
		return &BestResponsePolicy{Rate: r}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("ring did not converge: %+v", res.Stats)
	}
	ne, err := g.IsNashEquilibrium(res.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("converged ring state is not a NE")
	}
	matrix := res.Alloc.Matrix()
	for i, view := range res.Agents {
		if view.User != i {
			t.Fatalf("agent %d got identity %d", i, view.User)
		}
		if !view.IsNE || !view.Converged {
			t.Fatalf("agent %d view: %+v", i, view)
		}
		for u := range matrix {
			for c := range matrix[u] {
				if view.Matrix[u][c] != matrix[u][c] {
					t.Fatalf("agent %d saw a different matrix", i)
				}
			}
		}
	}
}

// TestMixedPoliciesConverge mixes greedy and best-response devices; the run
// must still go quiet within the round cap.
func TestMixedPoliciesConverge(t *testing.T) {
	r := ratefn.NewTDMA(1)
	g := testGame(t, 6, 5, 3)
	res, err := RunLocal(g, UniformPolicies(g.Users(), func(i int) Policy {
		if i%2 == 0 {
			return &GreedyPolicy{}
		}
		return &BestResponsePolicy{Rate: r}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("mixed ring did not converge: %+v", res.Stats)
	}
}

// TestMessageAccounting pins the frame count: N hellos, 2 frames per token
// pass, N dones and N acks.
func TestMessageAccounting(t *testing.T) {
	g := testGame(t, 3, 3, 2)
	res, err := RunLocal(g, UniformPolicies(g.Users(), func(int) Policy {
		return &GreedyPolicy{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	n := g.Users()
	want := n + 2*n*res.Stats.Rounds + 2*n
	if res.Stats.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Stats.Messages, want)
	}
}

// TestCoordinatorValidation covers constructor and wiring errors.
func TestCoordinatorValidation(t *testing.T) {
	g := testGame(t, 2, 2, 1)
	if _, err := NewCoordinator(nil); err == nil {
		t.Fatal("nil game accepted")
	}
	if _, err := NewCoordinator(g, WithMaxRounds(0)); err == nil {
		t.Fatal("zero round cap accepted")
	}
	if _, err := RunLocal(g, nil); err == nil {
		t.Fatal("policy count mismatch accepted")
	}
	if _, err := RunLocal(g, []Policy{nil, nil}); err == nil {
		t.Fatal("nil policies accepted")
	}
}

// TestRoundCapReported verifies a too-small cap is reported as
// non-convergence rather than an error.
func TestRoundCapReported(t *testing.T) {
	r := ratefn.NewTDMA(1)
	g := testGame(t, 8, 6, 3)
	res, err := RunLocal(g, UniformPolicies(g.Users(), func(int) Policy {
		return &BestResponsePolicy{Rate: r}
	}), WithMaxRounds(1), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Fatal("one round cannot both move and go quiet on this game")
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Stats.Rounds)
	}
}
