package chanalloc

import (
	"github.com/multiradio/chanalloc/internal/dynamics"
)

// Dynamics types, re-exported.
type (
	// DynamicsResult reports one convergence run.
	DynamicsResult = dynamics.Result
	// DynamicsOption configures the dynamics runners.
	DynamicsOption = dynamics.Option
	// DynamicsProcess selects the convergence process a batch replicates.
	DynamicsProcess = dynamics.Process
	// BatchSpec describes a batch of dynamics replicates run over the
	// parallel engine.
	BatchSpec = dynamics.BatchSpec
	// BatchResult aggregates a batch of dynamics runs.
	BatchResult = dynamics.BatchResult
)

// Batchable dynamics processes.
const (
	BestResponseProcess = dynamics.BestResponseProcess
	RadioGreedyProcess  = dynamics.RadioGreedyProcess
	SimultaneousProcess = dynamics.SimultaneousProcess
)

// RunBestResponse runs user-level best-response dynamics from start (which
// is cloned, not modified), each user's DP bounded by its own budget. A
// converged run ends at a Nash equilibrium.
func RunBestResponse(g *Game, start *Alloc, opts ...DynamicsOption) (DynamicsResult, error) {
	return dynamics.RunBestResponse(g, start, opts...)
}

// RunRadioGreedy runs radio-level greedy dynamics; each accepted move
// strictly increases the congestion potential, so the process cannot cycle.
func RunRadioGreedy(g *Game, start *Alloc, opts ...DynamicsOption) (DynamicsResult, error) {
	return dynamics.RunRadioGreedy(g, start, opts...)
}

// RunSimultaneous runs simultaneous best-response dynamics with inertia:
// with inertia = 1 symmetric configurations oscillate forever (the
// miscoordination the paper's sequential algorithm avoids); with
// inertia < 1 the process converges almost surely.
func RunSimultaneous(g *Game, start *Alloc, inertia float64, opts ...DynamicsOption) (DynamicsResult, error) {
	return dynamics.RunSimultaneous(g, start, inertia, opts...)
}

// RunBatch fans a batch of independent dynamics replicates out over the
// parallel engine: replicate r starts from a seeded random allocation
// drawn from a stream derived only from spec.Seed and r, so the aggregate
// is reproducible and worker-count independent.
func RunBatch(g *Game, spec BatchSpec) (*BatchResult, error) {
	return dynamics.RunBatch(g, spec)
}

// RandomAlloc builds a full-deployment allocation with every radio on a
// uniformly random channel — the standard cold start for dynamics runs.
func RandomAlloc(g *Game, seed uint64) *Alloc { return dynamics.RandomAlloc(g, seed) }

// WithDynamicsSeed fixes the seed of RunSimultaneous's inertia draws.
func WithDynamicsSeed(seed uint64) DynamicsOption { return dynamics.WithSeed(seed) }

// WithDynamicsWorkspace injects a reusable DP workspace into a run; borrow
// one from the shared pool (core exposes it through the live server and
// batch runner automatically) to make steady-state convergence runs
// allocation-free.
func WithDynamicsWorkspace(ws *Workspace) DynamicsOption { return dynamics.WithWorkspace(ws) }
