package dynamics

import (
	"fmt"
	"slices"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/obs"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// refBestResponseSweep is the best-response sweep without the class index,
// kept as the differential reference for bestResponseSweep: every user
// whose quiet verdict is not cached runs its own DP. A non-nil cls is kept
// in step with the moves, as a live game's index must be, but never read.
func refBestResponseSweep(g *core.Game, a *core.Alloc, cls *core.Classes, cfg config, preQuiet []bool) (Result, error) {
	ws := cfg.workspace()
	res := Result{Final: a}
	quietAt := make([]int, g.Users())
	for i := range quietAt {
		quietAt[i] = -1
		if preQuiet != nil && preQuiet[i] {
			quietAt[i] = 0
		}
	}
	for round := 0; round < cfg.maxRounds; round++ {
		improved := false
		for i := 0; i < g.Users(); i++ {
			if quietAt[i] == res.Moves {
				continue
			}
			current := g.Utility(a, i)
			row, best, err := g.BestResponseInto(ws, a, i)
			if err != nil {
				return Result{}, err
			}
			res.DPCalls++
			if best > current+cfg.eps {
				if err := a.SetRow(i, row); err != nil {
					return Result{}, err
				}
				if cls != nil {
					cls.Set(i, g.Budget(i), row)
				}
				res.Moves++
				improved = true
				continue
			}
			quietAt[i] = res.Moves
		}
		res.Rounds++
		if !improved {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// refWarmQuiet is warmQuiet user by user: every user that is not a churn
// suspect and occupies no dirty channel carries its quiet verdict over.
func refWarmQuiet(lg *core.LiveGame, wasQuiet bool, churn core.Churn) ([]bool, int) {
	if !wasQuiet || churn.Decreased {
		return nil, 0
	}
	a := lg.Alloc()
	preQuiet := make([]bool, lg.Users())
	skipped := 0
	for i := range preQuiet {
		if churn.Suspects[lg.IDAt(i)] {
			continue
		}
		onDirty := false
		for c := 0; c < lg.Channels(); c++ {
			if churn.Dirty[c] && a.Radios(i, c) > 0 {
				onDirty = true
			}
		}
		if !onDirty {
			preQuiet[i] = true
			skipped++
		}
	}
	return preQuiet, skipped
}

// refRequilibrate is Requilibrate over the reference warm start and sweep.
func refRequilibrate(lg *core.LiveGame, opts ...Option) (ReqResult, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return ReqResult{}, err
	}
	wasQuiet := lg.Equilibrated()
	churn := lg.TakeChurn()
	if lg.Users() == 0 {
		lg.MarkEquilibrated(true)
		return ReqResult{Result: Result{Converged: true}}, nil
	}
	preQuiet, skipped := refWarmQuiet(lg, wasQuiet, churn)
	res, err := refBestResponseSweep(lg.Frozen(), lg.Alloc(), lg.Classes(), cfg, preQuiet)
	if err != nil {
		return ReqResult{}, err
	}
	lg.MarkEquilibrated(res.Converged)
	return ReqResult{Result: res, WarmSkipped: skipped}, nil
}

// sameResult reports the first difference between an indexed and a
// reference run, or "".
func sameResult(got, want Result) string {
	switch {
	case got.Converged != want.Converged:
		return fmt.Sprintf("converged %v, reference %v", got.Converged, want.Converged)
	case got.Rounds != want.Rounds:
		return fmt.Sprintf("rounds %d, reference %d", got.Rounds, want.Rounds)
	case got.Moves != want.Moves:
		return fmt.Sprintf("moves %d, reference %d", got.Moves, want.Moves)
	case got.DPCalls != want.DPCalls:
		return fmt.Sprintf("DP calls %d, reference %d", got.DPCalls, want.DPCalls)
	case (got.Final == nil) != (want.Final == nil) || got.Final != nil && !got.Final.Equal(want.Final):
		return "final allocations differ"
	}
	return ""
}

// churnTwin applies the same seeded mutation to two live games kept in
// lockstep. Until the population reaches grow users every event is a join;
// after that it joins, leaves or renegotiates a budget in [1, maxBudget].
func churnTwin(t *testing.T, games [2]*core.LiveGame, rng *des.RNG, grow, maxBudget int) string {
	t.Helper()
	lg := games[0]
	users := lg.Users()
	var op func(*core.LiveGame) error
	var kind string
	switch {
	case users < grow || rng.Float64() < 0.35:
		k := 1 + rng.Intn(maxBudget)
		kind = fmt.Sprintf("join(%d)", k)
		op = func(g *core.LiveGame) error { _, err := g.Join(k); return err }
	case rng.Float64() < 0.5:
		id := lg.IDAt(rng.Intn(users))
		kind = fmt.Sprintf("leave(%d)", id)
		op = func(g *core.LiveGame) error { return g.Leave(id) }
	default:
		id := lg.IDAt(rng.Intn(users))
		k := 1 + rng.Intn(maxBudget)
		kind = fmt.Sprintf("budget(%d, %d)", id, k)
		op = func(g *core.LiveGame) error { return g.SetBudget(id, k) }
	}
	for _, g := range games {
		if err := op(g); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	return kind
}

// kernelDPs counts the best-response DP folds the kernel actually executed
// and kernelScreened the quiet verdicts its screen decided without one; the
// sweep flushes its workspace's counts into both at the end of every run.
var (
	kernelDPs      = obs.NewCounter("kernel_dp_calls_total")
	kernelScreened = obs.NewCounter("kernel_screen_quiet_total")
)

// TestRequilibrateMemoDifferential pins the warm start and the sweep over
// the live game's (budget, row) class index against the per-user
// reference: on every event of seeded churn traces in the many-users,
// few-channels regime, the two give identical rounds, moves, DP call
// counts, warm skips and final allocations, the indexed
// run executes no more kernel verdicts (DP folds plus screened quiet
// verdicts) than it counts, and both live games (index included) pass
// their invariant check.
func TestRequilibrateMemoDifferential(t *testing.T) {
	users, events := 256, 300
	if testing.Short() {
		users, events = 64, 60
	}
	for _, tc := range []struct {
		name      string
		seed      uint64
		maxBudget int
		opts      []Option
	}{
		{"seed1", 0x3e30_0001, 4, nil},
		{"seed2", 0x3e30_0002, 4, nil},
		{"seed3-wide-budgets", 0x3e30_0003, 16, nil},
		{"seed4", 0x3e30_0004, 4, nil},
		{"eps", 0x3e30_0005, 4, []Option{WithEps(0.5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var games [2]*core.LiveGame
			for j := range games {
				lg, err := core.NewLiveGame(16, ratefn.NewTDMA(54))
				if err != nil {
					t.Fatal(err)
				}
				games[j] = lg
			}
			ws := core.NewWorkspace()
			rng := des.NewRNG(tc.seed)
			hits := 0
			for ev := 0; ev < users+events; ev++ {
				kind := churnTwin(t, games, rng, users, tc.maxBudget)
				opts := append(slices.Clone(tc.opts), WithWorkspace(ws))
				dp0, sq0 := kernelDPs.Value(), kernelScreened.Value()
				got, err := Requilibrate(games[0], opts...)
				executed := int(kernelDPs.Value() - dp0 + kernelScreened.Value() - sq0)
				if err != nil {
					t.Fatalf("event %d (%s): %v", ev, kind, err)
				}
				want, err := refRequilibrate(games[1], tc.opts...)
				if err != nil {
					t.Fatalf("event %d (%s): reference: %v", ev, kind, err)
				}
				if diff := sameResult(got.Result, want.Result); diff != "" {
					t.Fatalf("event %d (%s): %s", ev, kind, diff)
				}
				if got.WarmSkipped != want.WarmSkipped {
					t.Fatalf("event %d (%s): warm skipped %d, reference %d",
						ev, kind, got.WarmSkipped, want.WarmSkipped)
				}
				for j, lg := range games {
					if err := lg.Check(); err != nil {
						t.Fatalf("event %d (%s): game %d: %v", ev, kind, j, err)
					}
				}
				if executed > got.DPCalls {
					t.Fatalf("event %d (%s): executed %d kernel verdicts for %d evaluations", ev, kind, executed, got.DPCalls)
				}
				hits += got.DPCalls - executed
			}
			if hits == 0 {
				t.Fatal("the class index answered no evaluation over the whole trace")
			}
		})
	}
}

// TestBestResponseMemoDifferential covers the uniform game's sweep from
// random cold starts, where many users share rows from the first round.
func TestBestResponseMemoDifferential(t *testing.T) {
	for _, tc := range []struct {
		users, channels, radios int
		opts                    []Option
	}{
		{64, 4, 2, nil},
		{128, 8, 3, nil},
		{96, 6, 2, []Option{WithEps(0.25)}},
		{40, 16, 16, nil},
	} {
		g, err := core.NewGame(tc.users, tc.channels, tc.radios, ratefn.NewTDMA(54))
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			start := RandomAlloc(g, seed)
			got, err := RunBestResponse(g, start, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := buildConfig(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refBestResponseSweep(g, start.Clone(), nil, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("%dx%dx%d seed %d: %s", tc.users, tc.channels, tc.radios, seed, diff)
			}
		}
	}
}
