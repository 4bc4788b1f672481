package core

import "github.com/multiradio/chanalloc/internal/obs"

// Kernel metrics. The DP and screen loops run in the tens of nanoseconds,
// far too hot for an atomic per operation shared across engine shards — so
// each Workspace accumulates plain integers (it is single-owner by
// contract) and FlushObs folds them into these process-global counters in
// one atomic add per field. WorkspacePool.Put flushes automatically, which
// covers every pooled hot path (engine shards, enumeration walks, batch
// replicates, live-server events); dynamics sweeps flush explicitly so
// injected workspaces report too. A workspace used directly and never
// flushed simply keeps its counts local — metrics are a side channel, and
// a one-shot call that skips them costs nothing.
var (
	mDPCalls       = obs.NewCounter("kernel_dp_calls_total")
	mScreenAccepts = obs.NewCounter("kernel_screen_accepts_total")
	mScreenRejects = obs.NewCounter("kernel_screen_rejects_total")
	mScreenQuiet   = obs.NewCounter("kernel_screen_quiet_total")
	mPoolHits      = obs.NewCounter("workspace_pool_hits_total")
	mPoolMisses    = obs.NewCounter("workspace_pool_misses_total")
)

// wsCounts is the workspace-local accumulator behind the kernel counters.
// Fields mirror the kernel_* metrics one to one.
type wsCounts struct {
	dpCalls       uint64 // best-response DP folds executed
	screenAccepts uint64 // profiles the screened oracle accepted as NE
	screenRejects uint64 // profiles rejected by the Eq. 7 screen (no DP)
	screenQuiet   uint64 // quiet verdicts the exchange certificate decided (no DP)
}

// FlushObs folds the workspace's accumulated kernel counts into the
// process-global obs counters and zeroes them. Safe to call at any point
// the workspace is quiescent; flushing twice is harmless (the second
// flush adds zero). Pool Put calls it automatically.
func (ws *Workspace) FlushObs() {
	if ws.obs.dpCalls != 0 {
		mDPCalls.Add(ws.obs.dpCalls)
	}
	if ws.obs.screenAccepts != 0 {
		mScreenAccepts.Add(ws.obs.screenAccepts)
	}
	if ws.obs.screenRejects != 0 {
		mScreenRejects.Add(ws.obs.screenRejects)
	}
	if ws.obs.screenQuiet != 0 {
		mScreenQuiet.Add(ws.obs.screenQuiet)
	}
	ws.obs = wsCounts{}
}
