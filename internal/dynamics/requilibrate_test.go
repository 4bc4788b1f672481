package dynamics

import (
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// applyRandomChurn applies one seeded random mutation to lg and reports a
// short label for failure messages. Budgets stay within [1, channels].
func applyRandomChurn(t *testing.T, lg *core.LiveGame, rng *des.RNG) string {
	t.Helper()
	users := lg.Users()
	switch {
	case users == 0 || rng.Float64() < 0.4:
		k := 1 + rng.Intn(lg.Channels())
		if _, err := lg.Join(k); err != nil {
			t.Fatalf("join(%d): %v", k, err)
		}
		return "join"
	case rng.Float64() < 0.5:
		id := lg.IDAt(rng.Intn(users))
		if err := lg.Leave(id); err != nil {
			t.Fatalf("leave(%d): %v", id, err)
		}
		return "leave"
	default:
		id := lg.IDAt(rng.Intn(users))
		k := 1 + rng.Intn(lg.Channels())
		if err := lg.SetBudget(id, k); err != nil {
			t.Fatalf("budget(%d, %d): %v", id, k, err)
		}
		return "budget"
	}
}

// TestRequilibrateDifferentialPin is the acceptance gate for the warm
// start: over a seeded churn trace, after EVERY event the re-equilibrated
// allocation is a Nash equilibrium per the exact oracle, the run verdict
// and terminal allocation are bit-identical to cold-start dynamics from
// the same post-churn state, and the warm run issues no more DP calls —
// strictly fewer summed over the trace.
func TestRequilibrateDifferentialPin(t *testing.T) {
	for _, tc := range []struct {
		name     string
		channels int
		seed     uint64
		events   int
	}{
		{"3ch", 3, 0x5eed_0001, 60},
		{"4ch", 4, 0x5eed_0002, 60},
		{"6ch", 6, 0x5eed_0003, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lg, err := core.NewLiveGame(tc.channels, ratefn.NewTDMA(54))
			if err != nil {
				t.Fatal(err)
			}
			rng := des.NewRNG(tc.seed)
			warmDP, coldDP := 0, 0
			for ev := 0; ev < tc.events; ev++ {
				kind := applyRandomChurn(t, lg, rng)
				if err := lg.Check(); err != nil {
					t.Fatalf("event %d (%s): %v", ev, kind, err)
				}
				if lg.Users() == 0 {
					if res, err := Requilibrate(lg); err != nil || !res.Converged {
						t.Fatalf("event %d (%s): empty requilibrate = %+v, %v", ev, kind, res, err)
					}
					continue
				}

				// Cold baseline from the identical post-churn state.
				g := lg.Frozen()
				start := lg.Alloc().Clone()

				res, err := Requilibrate(lg)
				if err != nil {
					t.Fatalf("event %d (%s): requilibrate: %v", ev, kind, err)
				}
				if err := lg.Check(); err != nil {
					t.Fatalf("event %d (%s): %v", ev, kind, err)
				}
				if !res.Converged {
					t.Fatalf("event %d (%s): did not converge in %d rounds", ev, kind, res.Rounds)
				}
				ne, err := g.IsNashEquilibrium(lg.Alloc())
				if err != nil {
					t.Fatalf("event %d (%s): oracle: %v", ev, kind, err)
				}
				if !ne {
					t.Fatalf("event %d (%s): terminal allocation is not an exact NE", ev, kind)
				}

				cold, err := RunBestResponse(g, start)
				if err != nil {
					t.Fatalf("event %d (%s): cold baseline: %v", ev, kind, err)
				}
				if cold.Converged != res.Converged || cold.Rounds != res.Rounds || cold.Moves != res.Moves {
					t.Fatalf("event %d (%s): warm (rounds=%d moves=%d conv=%v) != cold (rounds=%d moves=%d conv=%v)",
						ev, kind, res.Rounds, res.Moves, res.Converged, cold.Rounds, cold.Moves, cold.Converged)
				}
				if !cold.Final.Equal(lg.Alloc()) {
					t.Fatalf("event %d (%s): warm and cold terminal allocations differ", ev, kind)
				}
				if res.DPCalls > cold.DPCalls {
					t.Fatalf("event %d (%s): warm start used MORE DP calls (%d) than cold (%d)",
						ev, kind, res.DPCalls, cold.DPCalls)
				}
				warmDP += res.DPCalls
				coldDP += cold.DPCalls
			}
			if warmDP >= coldDP {
				t.Fatalf("warm start saved nothing over the trace: warm=%d cold=%d DP calls", warmDP, coldDP)
			}
			t.Logf("trace DP calls: warm=%d cold=%d (saved %.1f%%)",
				warmDP, coldDP, 100*float64(coldDP-warmDP)/float64(coldDP))
		})
	}
}

// TestRequilibrateEmptyAndErrors covers the trivial and failure paths.
func TestRequilibrateEmptyAndErrors(t *testing.T) {
	if _, err := Requilibrate(nil); err == nil {
		t.Fatal("nil live game accepted")
	}
	lg, err := core.NewLiveGame(3, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Requilibrate(lg)
	if err != nil || !res.Converged {
		t.Fatalf("empty requilibrate = %+v, %v", res, err)
	}
	if _, err := Requilibrate(lg, WithEps(-1)); err == nil {
		t.Fatal("negative eps accepted")
	}
}

// TestRequilibrateWarmSkipsSomething pins that join-only churn on an
// equilibrated game actually carries verdicts over (WarmSkipped > 0), and
// that a load-decreasing event voids them all.
func TestRequilibrateWarmSkipsSomething(t *testing.T) {
	lg, err := core.NewLiveGame(6, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := lg.Join(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Requilibrate(lg); err != nil {
		t.Fatal(err)
	}
	// A single-radio joiner on an equilibrated 5-user game: users off the
	// seeded channel keep their verdicts.
	id, err := lg.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Requilibrate(lg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmSkipped == 0 {
		t.Fatal("join-only churn carried no quiet verdicts over")
	}

	// A departure decreases loads: every verdict is void.
	if err := lg.Leave(id); err != nil {
		t.Fatal(err)
	}
	res, err = Requilibrate(lg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmSkipped != 0 {
		t.Fatalf("load-decreasing churn carried %d verdicts over, want 0", res.WarmSkipped)
	}
}

// TestRequilibrateCatchesCorruptRow pins the legality check at the top of
// Requilibrate: a row pushed over its budget behind the live game's back,
// through the allocation that LiveGame.Alloc documents as read-only, is
// refused by the next re-equilibration even when the row is no churn
// suspect and the churn in between never touched it. Each corruption is
// followed by a join, a budget change of another user, a departure of
// another user, or no churn at all.
func TestRequilibrateCatchesCorruptRow(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(a *core.Alloc) error
	}{
		// Row 0 belongs to user 1, budget 1, one radio deployed.
		{"SetRow", func(a *core.Alloc) error { return a.SetRow(0, []int{1, 1, 0, 0}) }},
		{"Add", func(a *core.Alloc) error {
			c := 0
			for a.Radios(0, c) > 0 {
				c++
			}
			return a.Add(0, c, 1)
		}},
	}
	churns := []struct {
		name  string
		churn func(lg *core.LiveGame) error
	}{
		{"none", func(*core.LiveGame) error { return nil }},
		{"join", func(lg *core.LiveGame) error { _, err := lg.Join(2); return err }},
		{"budget", func(lg *core.LiveGame) error { return lg.SetBudget(2, 3) }},
		{"leave", func(lg *core.LiveGame) error { return lg.Leave(3) }},
	}
	for _, cr := range corruptions {
		for _, ch := range churns {
			t.Run(cr.name+"/"+ch.name, func(t *testing.T) {
				lg, err := core.NewLiveGame(4, ratefn.NewTDMA(54))
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 1, 3} {
					if _, err := lg.Join(k); err != nil {
						t.Fatal(err)
					}
					if _, err := Requilibrate(lg); err != nil {
						t.Fatal(err)
					}
				}
				if err := cr.corrupt(lg.Alloc()); err != nil {
					t.Fatal(err)
				}
				if err := ch.churn(lg); err != nil {
					t.Fatal(err)
				}
				_, err = Requilibrate(lg)
				if err == nil || !strings.Contains(err.Error(), "dynamics: live allocation invalid") {
					t.Fatalf("requilibrate after a corrupt row = %v, want a live allocation invalid error", err)
				}
			})
		}
	}
}
