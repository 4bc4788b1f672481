package dynamics

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/obs"
)

// ReqResult reports a warm-started re-equilibration.
type ReqResult struct {
	Result
	// WarmSkipped counts users whose pre-churn quiet verdict was carried
	// over — their first best-response DP was skipped outright.
	WarmSkipped int
}

// Requilibrate restores a live game to a Nash equilibrium after churn,
// warm-starting best-response dynamics from the previous equilibrium
// instead of replaying convergence from scratch. The live allocation is
// evolved IN PLACE; on a converged run it is an exact equilibrium of the
// current population (every user's DP found no improving deviation).
//
// The warm start carries pre-churn quiet verdicts forward where they are
// provably still valid. The utility of one radio among x own radios on a
// channel with external load m is v(m, x) = x/(m+x)·R(m+x), non-increasing
// in m for non-increasing R — so a user's best-response value is
// non-increasing in the loads it faces. If every churn event only ADDED
// load (joins, budget growth), then a user that (a) was quiet before the
// churn, (b) had its own row untouched, and (c) occupies no channel whose
// load changed, sees its current utility unchanged and its best
// alternative weakly worse: it is still quiet. Any load decrease (a leave
// or a budget cut) voids all verdicts — freed capacity can tempt anyone —
// and the run falls back to a full sweep from the warm allocation.
//
// Because carried verdicts only skip DPs for provable non-movers, the move
// sequence, rounds and terminal allocation are bit-identical to a cold
// RunBestResponse from the same start; only Result.DPCalls shrinks.
//
// Like RunBestResponse, it refuses an allocation in which some user
// deploys more than its budget, but it does not rescan all N rows per
// event to find one: LiveGame.CheckAlloc keeps a legality stamp that the
// live game's own mutators advance over the rows they write, and the scan
// runs only when some other write (one through the read-only
// LiveGame.Alloc, say) reached the allocation since the last pass. The
// sweep checks every row it applies against the mover's budget, so a
// successful sweep that started from a vouched allocation extends the
// stamp over its own moves.
func Requilibrate(lg *core.LiveGame, opts ...Option) (ReqResult, error) {
	if lg == nil {
		return ReqResult{}, fmt.Errorf("dynamics: nil live game")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return ReqResult{}, err
	}
	wasQuiet := lg.Equilibrated()
	churn := lg.TakeChurn()
	if lg.Users() == 0 {
		// The empty allocation is trivially an equilibrium.
		lg.MarkEquilibrated(true)
		return ReqResult{Result: Result{Converged: true}}, nil
	}
	legalAt, err := lg.CheckAlloc()
	if err != nil {
		return ReqResult{}, fmt.Errorf("dynamics: live allocation invalid: %w", err)
	}

	preQuiet, skipped := warmQuiet(lg, wasQuiet, churn)
	res, err := bestResponseSweep(lg.Frozen(), lg.Alloc(), lg.Classes(), cfg, preQuiet)
	if err != nil {
		return ReqResult{}, err
	}
	lg.ExtendLegal(legalAt)
	lg.MarkEquilibrated(res.Converged)
	mRequilibrates.Inc()
	mWarmSkips.Add(uint64(skipped))
	obs.Emit("requilibrate", "", int64(res.Rounds), int64(res.Moves), int64(skipped))
	return ReqResult{Result: res, WarmSkipped: skipped}, nil
}

// warmQuiet derives the warm start's carried quiet verdicts (see
// Requilibrate) and how many users they cover: nil unless the allocation
// was quiet before the churn and no load decreased; otherwise every user
// that is not a churn suspect and occupies no dirty channel. Members of a
// class share their row, so "on a dirty channel" is decided once per
// class, and the few suspects are cleared by walking the suspect set.
func warmQuiet(lg *core.LiveGame, wasQuiet bool, churn core.Churn) ([]bool, int) {
	if !wasQuiet || churn.Decreased {
		return nil, 0
	}
	var dirty []int
	for ch, d := range churn.Dirty {
		if d {
			dirty = append(dirty, ch)
		}
	}
	cls := lg.Classes()
	onDirty := make([]bool, cls.Size())
	for c := range onDirty {
		if cls.Count(c) == 0 {
			continue
		}
		row := cls.Row(c)
		for _, ch := range dirty {
			if row[ch] > 0 {
				onDirty[c] = true
				break
			}
		}
	}
	preQuiet := make([]bool, lg.Users())
	skipped := 0
	for i := range preQuiet {
		if !onDirty[cls.Of(i)] {
			preQuiet[i] = true
			skipped++
		}
	}
	for id := range churn.Suspects {
		if i, ok := lg.RowOf(id); ok && preQuiet[i] {
			preQuiet[i] = false
			skipped--
		}
	}
	return preQuiet, skipped
}
