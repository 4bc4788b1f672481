package core

import "testing"

// TestWorkspaceFlushObs pins the batching contract: workspace-local counts
// move to the global counters exactly once (flush zeroes the locals, so a
// double flush — sweep end then pool Put — cannot double-count).
func TestWorkspaceFlushObs(t *testing.T) {
	ws := NewWorkspace()
	ws.obs.dpCalls += 5
	ws.obs.screenAccepts += 3
	ws.obs.screenRejects += 2
	ws.obs.screenQuiet += 4

	dp := mDPCalls.Value()
	acc := mScreenAccepts.Value()
	rej := mScreenRejects.Value()
	quiet := mScreenQuiet.Value()
	ws.FlushObs()
	// Deltas are >= because parallel tests share the process globals.
	if got := mDPCalls.Value() - dp; got < 5 {
		t.Errorf("dp calls flushed %d, want >= 5", got)
	}
	if got := mScreenAccepts.Value() - acc; got < 3 {
		t.Errorf("screen accepts flushed %d, want >= 3", got)
	}
	if got := mScreenRejects.Value() - rej; got < 2 {
		t.Errorf("screen rejects flushed %d, want >= 2", got)
	}
	if got := mScreenQuiet.Value() - quiet; got < 4 {
		t.Errorf("screened quiet verdicts flushed %d, want >= 4", got)
	}
	if ws.obs != (wsCounts{}) {
		t.Errorf("flush must zero the workspace counts, got %+v", ws.obs)
	}
	dp = mDPCalls.Value()
	ws.FlushObs()
	// A second flush of a zeroed workspace adds nothing of its own; other
	// tests may add concurrently, so only the exact-zero case is checkable
	// when the test runs alone — settle for not panicking and staying zero.
	if ws.obs != (wsCounts{}) {
		t.Errorf("flush of zero counts must stay zero, got %+v", ws.obs)
	}
	_ = dp
}

// TestPoolCountsGets pins that every pool Get lands in exactly one of the
// hit/miss counters, and that Put flushes the workspace's pending counts.
func TestPoolCountsGets(t *testing.T) {
	hits := mPoolHits.Value()
	misses := mPoolMisses.Value()
	const gets = 8
	for i := 0; i < gets; i++ {
		ws := Workspaces.Get()
		Workspaces.Put(ws)
	}
	if got := (mPoolHits.Value() - hits) + (mPoolMisses.Value() - misses); got < gets {
		t.Errorf("hit+miss grew by %d over %d gets, want >= %d", got, gets, gets)
	}

	dp := mDPCalls.Value()
	ws := Workspaces.Get()
	ws.obs.dpCalls += 7
	Workspaces.Put(ws)
	if got := mDPCalls.Value() - dp; got < 7 {
		t.Errorf("Put flushed %d dp calls, want >= 7", got)
	}
}
