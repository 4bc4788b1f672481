// Package dynamics implements decentralised convergence processes for the
// channel allocation game: users (or individual radios) repeatedly improve
// their own allocation until no one can.
//
// The paper proves what the stable points look like (Theorem 1) and gives a
// centralised algorithm to land on one; this package studies how selfish
// play *reaches* equilibria — the paper's "ongoing work" on distributed
// implementations (§3, §4). Two processes are provided:
//
//   - best-response dynamics: in each step one user replaces its whole
//     strategy row with an exact best response (package core's DP);
//   - radio-greedy dynamics: in each step one radio moves to the channel
//     that maximises its own rate. Single-radio moves strictly increase the
//     exact potential Φ(S) = Σ_c Σ_{j=1}^{k_c} R(j)/j, so this process can
//     never cycle.
package dynamics

import (
	"fmt"
	"math"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
)

// Result reports one dynamics run.
type Result struct {
	// Converged is true when a full round passed with no improving move.
	Converged bool
	// Rounds is the number of full sweeps executed (including the final
	// quiet one).
	Rounds int
	// Moves counts strategy changes across the run.
	Moves int
	// DPCalls counts best-response evaluations across the run: users whose
	// verdict was not already cached (radio-greedy runs report 0). An
	// evaluation answered by a (budget, row) class already proven quiet
	// counts like one that ran the DP, so the number depends only on the
	// move sequence; the DP folds actually executed are the
	// kernel_dp_calls_total counter, the verdicts the quiet screen decided
	// without one kernel_screen_quiet_total.
	// Warm-started re-equilibration exists to shrink this number — see
	// Requilibrate.
	DPCalls int
	// Final is the terminal allocation (aliases the evolved copy, not the
	// caller's input).
	Final *core.Alloc
}

// Options configures a dynamics run.
type config struct {
	maxRounds int
	eps       float64
	seed      uint64
	ws        *core.Workspace
}

// workspace returns the injected workspace or a fresh one. The sweep
// allocates nothing when the caller injects (batch replicates and the live
// server share pooled workspaces this way).
func (c *config) workspace() *core.Workspace {
	if c.ws != nil {
		return c.ws
	}
	return core.NewWorkspace()
}

// Option configures RunBestResponse and RunRadioGreedy.
type Option func(*config)

// WithMaxRounds caps the number of sweeps (default 1000).
func WithMaxRounds(n int) Option {
	return func(c *config) { c.maxRounds = n }
}

// WithEps sets the minimum strict improvement for a move (default
// core.DefaultEps). Larger values model switching costs.
func WithEps(eps float64) Option {
	return func(c *config) { c.eps = eps }
}

// WithSeed fixes the seed of RunSimultaneous's inertia draws (default 0);
// the sequential runners sweep users in index order and draw nothing.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithWorkspace injects the DP workspace the run should use instead of
// allocating its own — batch replicates, engine shards and the live
// server's event handlers share one (or borrow from core.Workspaces) so
// steady-state runs allocate nothing. The workspace must not be used
// concurrently; results are identical with or without injection.
func WithWorkspace(ws *core.Workspace) Option {
	return func(c *config) { c.ws = ws }
}

func buildConfig(opts []Option) (config, error) {
	cfg := config{maxRounds: 1000, eps: core.DefaultEps}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.maxRounds < 1 {
		return cfg, fmt.Errorf("dynamics: maxRounds = %d, want >= 1", cfg.maxRounds)
	}
	if cfg.eps < 0 || math.IsNaN(cfg.eps) {
		return cfg, fmt.Errorf("dynamics: negative eps %v", cfg.eps)
	}
	return cfg, nil
}

// RunBestResponse runs user-level best-response dynamics from the given
// starting allocation, each user's DP bounded by its own budget. The start
// is cloned; the caller's allocation is not modified. Convergence (a full
// quiet round) yields a Nash equilibrium by construction. It is also the
// cold-start baseline the warm-started Requilibrate is differentially
// pinned against.
func RunBestResponse(g *core.Game, start *core.Alloc, opts ...Option) (Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return Result{}, err
	}
	if err := g.CheckAlloc(start); err != nil {
		return Result{}, err
	}
	a := start.Clone()
	return bestResponseSweep(g, a, core.NewClasses(g, a), cfg, nil)
}

// bestResponseSweep is the shared best-response loop behind
// RunBestResponse and Requilibrate. It evolves a IN PLACE (callers clone
// when the input must survive) and returns it as Result.Final; cls is a's
// (budget, row) class index, re-interned after every move. Every row it
// applies first passes Game.CheckRow against the mover's budget, so a
// legal start stays legal (Requilibrate's legality stamp relies on it).
//
// preQuiet warm-starts the quiet cache: preQuiet[i] true asserts user i
// provably has no improving deviation at the INITIAL allocation (move
// count 0), so its DP is skipped until somebody moves. Requilibrate derives
// this set from churn dirt plus the load-monotonicity argument; nil means
// no prior knowledge (every user is swept). Because a pre-quiet user is by
// assertion a non-mover, the move sequence and terminal allocation are
// bit-identical to the preQuiet == nil run — only DPCalls differs.
func bestResponseSweep(g *core.Game, a *core.Alloc, cls *core.Classes, cfg config, preQuiet []bool) (Result, error) {
	// One workspace per run (injected or fresh): the whole convergence
	// process is allocation-free.
	ws := cfg.workspace()
	res := Result{Final: a}

	n := g.Users()
	// A move re-interns one row without growing the class table beyond
	// max(Size, n), so the per-class stamps fit for the whole run.
	classes := max(cls.Size(), n)
	scratch := ws.UserInts(n + classes)
	quietAt, classQuietAt := scratch[:n:n], scratch[n:]
	// Cached quiet verdicts: quietAt[i] is the move count at which user i
	// was last verified to have no improving deviation, -1 if never. When
	// nobody has moved since (res.Moves unchanged), the allocation is
	// bit-identical to the one that verdict was computed on, so the DP is
	// skipped — same moves and convergence round, at the cost of an
	// integer compare. The final quiet sweep in particular re-runs the DP
	// only for users checked before the last accepted move. A mover is
	// never marked quiet: its post-move utility comes from a different
	// float grouping than the DP fold, so the verdict must be recomputed.
	for i := range quietAt {
		quietAt[i] = -1
		if preQuiet != nil && preQuiet[i] {
			quietAt[i] = 0
		}
	}
	// classQuietAt[c] is the move count at which a member of class c was
	// last proven quiet by its own DP, -1 if never: a user of the same
	// (budget, row) faces the same external loads and has the same
	// utility, so it is quiet too and its DP is skipped. Only quiet
	// verdicts are reused — a class's first user runs the DP and may move.
	// Every move bumps the count, so a stamp never outlives the allocation
	// it was proven on, nor passes to a class that reuses a freed id.
	for c := range classQuietAt {
		classQuietAt[c] = -1
	}
	for round := 0; round < cfg.maxRounds; round++ {
		improved := false
		for i := 0; i < n; i++ {
			if quietAt[i] == res.Moves {
				continue
			}
			res.DPCalls++
			c := cls.Of(i)
			if classQuietAt[c] == res.Moves {
				quietAt[i] = res.Moves
				continue
			}
			row, _, improves, err := g.DeviationInto(ws, a, i, cfg.eps)
			if err != nil {
				return Result{}, fmt.Errorf("dynamics: best response for user %d: %w", i, err)
			}
			if improves {
				if err := g.CheckRow(i, row); err != nil {
					return Result{}, fmt.Errorf("dynamics: best response for user %d: %w", i, err)
				}
				if err := a.SetRow(i, row); err != nil {
					return Result{}, fmt.Errorf("dynamics: applying row for user %d: %w", i, err)
				}
				cls.Set(i, g.Budget(i), row)
				res.Moves++
				improved = true
				continue
			}
			quietAt[i] = res.Moves
			classQuietAt[c] = res.Moves
		}
		res.Rounds++
		if !improved {
			res.Converged = true
			break
		}
	}
	// Metrics are a side channel: three atomic adds per run, plus a flush
	// of the workspace-local kernel counts so injected (non-pooled)
	// workspaces report too. Flushing zeroes the counts, so the pool's own
	// flush on Put stays a no-op.
	mRuns.Inc()
	mRounds.Add(uint64(res.Rounds))
	mMoves.Add(uint64(res.Moves))
	ws.FlushObs()
	return res, nil
}

// RunRadioGreedy runs radio-level greedy dynamics: each user in turn
// considers every one of its radios and moves it to the channel maximising
// that radio's rate share, if the user's utility strictly improves by more
// than eps. Every accepted move strictly increases the potential Φ, so the
// process always terminates at a state where no single-radio move helps.
func RunRadioGreedy(g *core.Game, start *core.Alloc, opts ...Option) (Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return Result{}, err
	}
	if err := g.CheckAlloc(start); err != nil {
		return Result{}, err
	}
	a := start.Clone()
	res := Result{Final: a}

	for round := 0; round < cfg.maxRounds; round++ {
		improved := false
		for i := 0; i < g.Users(); i++ {
			for from := 0; from < g.Channels(); from++ {
				if a.Radios(i, from) == 0 {
					continue
				}
				bestTo, bestDelta := -1, cfg.eps
				for to := 0; to < g.Channels(); to++ {
					if to == from {
						continue
					}
					delta, err := g.BenefitOfMove(a, i, from, to)
					if err != nil {
						return Result{}, fmt.Errorf("dynamics: benefit of move: %w", err)
					}
					if delta > bestDelta {
						bestTo, bestDelta = to, delta
					}
				}
				if bestTo >= 0 {
					if err := a.Move(i, from, bestTo); err != nil {
						return Result{}, fmt.Errorf("dynamics: move: %w", err)
					}
					res.Moves++
					improved = true
				}
			}
		}
		res.Rounds++
		if !improved {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// RandomAlloc builds a full-deployment allocation with each radio on an
// independently uniform channel — the canonical "cold start" for dynamics
// experiments.
func RandomAlloc(g *core.Game, seed uint64) *core.Alloc {
	rng := des.NewRNG(seed)
	a := g.NewEmptyAlloc()
	for i := 0; i < g.Users(); i++ {
		for j := 0; j < g.Budget(i); j++ {
			// Adding one radio to a valid allocation cannot fail.
			if err := a.Add(i, rng.Intn(g.Channels()), 1); err != nil {
				panic("dynamics: random placement failed: " + err.Error())
			}
		}
	}
	return a
}
