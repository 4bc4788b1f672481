package dynamics

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
)

// RunSimultaneous runs simultaneous best-response dynamics with inertia:
// every round, all users compute a best response against the *current*
// state at once, and each user that found a strict improvement switches
// with probability inertia (0 < inertia <= 1).
//
// With inertia = 1 (everyone always switches) the process famously
// oscillates: all users chase the same under-loaded channels and overshoot,
// a miscoordination the paper's sequential Algorithm 1 avoids by
// construction. With inertia < 1 the symmetry breaks randomly and the
// process converges almost surely. The dynamics tests and experiment E6
// quantify both regimes.
func RunSimultaneous(g *core.Game, start *core.Alloc, inertia float64, opts ...Option) (Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return Result{}, err
	}
	if inertia <= 0 || inertia > 1 {
		return Result{}, fmt.Errorf("dynamics: inertia %v out of (0, 1]", inertia)
	}
	if err := g.CheckAlloc(start); err != nil {
		return Result{}, err
	}
	a := start.Clone()
	rng := des.NewRNG(cfg.seed)
	res := Result{Final: a}

	ws := cfg.workspace()
	rows := make([][]int, g.Users())
	for round := 0; round < cfg.maxRounds; round++ {
		// Phase 1: everyone plans against the same snapshot.
		anyImprovement := false
		for i := 0; i < g.Users(); i++ {
			rows[i] = nil
			row, _, improves, err := g.DeviationInto(ws, a, i, cfg.eps)
			if err != nil {
				return Result{}, fmt.Errorf("dynamics: best response for user %d: %w", i, err)
			}
			if improves {
				anyImprovement = true
				if inertia == 1 || rng.Float64() < inertia {
					// The DP row aliases the workspace; copy before the next
					// user's plan overwrites it.
					rows[i] = append([]int(nil), row...)
				}
			}
		}
		// Phase 2: switches apply together.
		for i, row := range rows {
			if row == nil {
				continue
			}
			if err := a.SetRow(i, row); err != nil {
				return Result{}, fmt.Errorf("dynamics: applying row for user %d: %w", i, err)
			}
			res.Moves++
		}
		res.Rounds++
		if !anyImprovement {
			res.Converged = true
			break
		}
	}
	return res, nil
}
