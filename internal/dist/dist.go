// Package dist implements the distributed channel-allocation protocol the
// paper lists as ongoing work (§3): a coordinator passes a token around the
// devices; the token holder learns the aggregate external load of every
// channel — the information carrier sensing would give it — and answers
// with the strategy row it wants to play. The ring keeps circulating until
// a full round passes with no device changing its row.
//
// Two device policies are provided:
//
//   - GreedyPolicy places its radios once, water-filling the announced
//     loads exactly like one iteration of the paper's Algorithm 1, and
//     keeps the row afterwards. When every device is greedy the protocol
//     reproduces the centralised Algorithm 1 run for run.
//   - BestResponsePolicy replays the exact best-response dynamic program
//     against the announced loads every time it holds the token and moves
//     whenever that strictly improves its utility. The game is a potential
//     game, so the ring converges to a Nash equilibrium.
//
// The wire protocol is newline-delimited JSON over any net.Conn, for
// coordinator and agents on real sockets (Coordinator.Run, RunAgent,
// examples/distributed): one frame per line, ended by exactly one
// newline, read back with the shared line reader (internal/ndjson) that
// allocd and the engine read with too, at this protocol's bound of 8 bytes
// a cell of a game within workload.MaxCells. A frame split across lines,
// two frames on one line, or a frame past the bound ends the run.
// RunLocal keeps every agent in one process and hands each its frames by
// direct call; the agent state machine, its frame checks and the
// coordinator loop are the same code on both carriers.
package dist

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Policy chooses a device's strategy row when it holds the token.
type Policy interface {
	// Propose returns the row the device wants to play given the external
	// channel loads ext (its own radios excluded), its current row and its
	// radio budget. Returning a row equal to current counts as "no move".
	//
	// ext and current are valid only for the length of the call: the
	// carrier reuses their storage for the next frame, so a policy that
	// keeps them must copy them. The returned row may be current itself
	// or a slice the policy keeps; the carrier copies or encodes it before
	// the next call.
	Propose(ext, current []int, radios int) ([]int, error)
}

// GreedyPolicy water-fills the announced loads once — the device-side view
// of Algorithm 1's per-user placement — and then keeps its row forever.
type GreedyPolicy struct {
	// Tie selects among equally loaded channels; the zero value is TieFirst,
	// matching Algorithm1's default.
	Tie core.TieBreak
	// Seed drives TieRandom.
	Seed uint64

	rng *des.RNG
}

// Propose implements Policy.
func (p *GreedyPolicy) Propose(ext, current []int, radios int) ([]int, error) {
	for _, v := range current {
		if v > 0 {
			return current, nil // already placed; Algorithm 1 is one-shot
		}
	}
	if p.rng == nil {
		p.rng = des.NewRNG(p.Seed)
	}
	placer := core.Placer{Tie: p.Tie, RNG: p.rng}
	return placer.Place(ext, radios)
}

// BestResponsePolicy plays an exact best response to the announced loads,
// moving only when the new row beats the current one by more than Eps.
type BestResponsePolicy struct {
	// Rate is the channel rate function the device optimises against.
	Rate ratefn.Func
	// Eps is the minimum strict improvement for a move; zero means
	// core.DefaultEps.
	Eps float64
}

// Propose implements Policy. The DP runs in a workspace borrowed from
// core.Workspaces for the call, so the steady-state token round (no move)
// allocates nothing; a move copies the proposed row out of the workspace
// before returning it.
func (p *BestResponsePolicy) Propose(ext, current []int, radios int) ([]int, error) {
	if p.Rate == nil {
		return nil, fmt.Errorf("dist: BestResponsePolicy needs a rate function")
	}
	eps := p.Eps
	if eps == 0 {
		eps = core.DefaultEps
	}
	ws := core.Workspaces.Get()
	defer core.Workspaces.Put(ws)
	row, best, err := core.BestResponseToLoadsInto(ws, p.Rate, ext, radios)
	if err != nil {
		return nil, err
	}
	if best > utilityAgainst(p.Rate, ext, current)+eps {
		return append([]int(nil), row...), nil
	}
	return current, nil
}

// utilityAgainst evaluates a row's utility against fixed external loads:
// Σ_c row[c]/(ext[c]+row[c]) · R(ext[c]+row[c]).
func utilityAgainst(r ratefn.Func, ext, row []int) float64 {
	var u float64
	for c, own := range row {
		if own == 0 {
			continue
		}
		total := ext[c] + own
		u += float64(own) / float64(total) * r.Rate(total)
	}
	return u
}

// UniformPolicies builds one policy per user from a factory.
func UniformPolicies(n int, factory func(user int) Policy) []Policy {
	out := make([]Policy, n)
	for i := range out {
		out[i] = factory(i)
	}
	return out
}
