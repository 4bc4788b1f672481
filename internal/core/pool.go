package core

import "sync"

// WorkspacePool recycles Workspaces across goroutines. The DP slabs inside
// a Workspace are grown on demand and never shrink, so a recycled workspace
// usually serves its next borrower without touching the allocator — the
// steady state of a pool-backed hot path (engine shards, dynamics batches,
// live-server event handlers) is zero allocations per operation.
//
// Get and Put are safe for concurrent use; the Workspace between them is
// not — each borrower owns it exclusively until Put.
type WorkspacePool struct {
	p sync.Pool
}

// NewWorkspacePool returns an empty pool; workspaces are created on first
// Get and recycled thereafter.
func NewWorkspacePool() *WorkspacePool {
	wp := &WorkspacePool{}
	wp.p.New = func() any {
		ws := NewWorkspace()
		ws.poolFresh = true
		return ws
	}
	return wp
}

// Get borrows a workspace, creating one if the pool is empty. Hits (a
// recycled workspace, the steady state) and misses (a fresh allocation)
// feed the workspace_pool_* counters — the live view of whether a hot
// path is really running allocation-free.
func (wp *WorkspacePool) Get() *Workspace {
	ws := wp.p.Get().(*Workspace)
	if ws.poolFresh {
		ws.poolFresh = false
		mPoolMisses.Inc()
	} else {
		mPoolHits.Inc()
	}
	return ws
}

// Put returns a workspace to the pool. The workspace must not be used after
// Put; nil is ignored. The DP slabs carry no cross-call semantics, so
// nothing is reset. Accumulated kernel counts are flushed to the global
// obs counters on the way in, so pooled hot paths report without paying a
// single atomic inside their loops.
func (wp *WorkspacePool) Put(ws *Workspace) {
	if ws != nil {
		ws.FlushObs()
		wp.p.Put(ws)
	}
}

// Workspaces is the package-level shared pool: callers that would otherwise
// construct a fresh Workspace per batch, shard or event borrow from here so
// slab allocations amortise across the process.
var Workspaces = NewWorkspacePool()
