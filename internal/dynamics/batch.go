package dynamics

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/engine"
)

// Process selects the convergence process a batch replicates.
type Process int

// Batchable processes.
const (
	BestResponseProcess Process = iota + 1
	RadioGreedyProcess
	SimultaneousProcess
)

// String implements fmt.Stringer.
func (p Process) String() string {
	switch p {
	case BestResponseProcess:
		return "best-response"
	case RadioGreedyProcess:
		return "radio-greedy"
	case SimultaneousProcess:
		return "simultaneous"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// BatchSpec describes a batch of dynamics replicates: one process, one
// game, Replicates independent runs from seeded random starts, fanned out
// over the engine's worker pool.
type BatchSpec struct {
	// Process picks the dynamics runner.
	Process Process
	// Inertia is the move probability for SimultaneousProcess (ignored by
	// the sequential processes).
	Inertia float64
	// Replicates is the number of independent runs.
	Replicates int
	// Seed is the root seed; replicate r draws its start allocation and its
	// run seed (WithSeed) from engine.JobSeed(Seed, r), so batch results do
	// not depend on the worker count.
	Seed uint64
	// Workers sizes the pool; < 1 means runtime.NumCPU().
	Workers int
	// Opts apply to every run (eps, round cap) — except WithSeed,
	// which the batch overrides per replicate.
	Opts []Option
}

// BatchResult aggregates a batch of dynamics runs.
type BatchResult struct {
	// Runs holds the per-replicate results, in replicate order.
	Runs []Result
	// Converged counts replicates that went quiet before the round cap.
	Converged int
	// MeanRounds and MeanMoves average over all replicates.
	MeanRounds float64
	MeanMoves  float64
	// Engine reports how the batch was executed (workers, timings).
	Engine engine.Stats
}

// RunBatch runs Replicates independent dynamics runs of one process on g
// and aggregates them. Replicate r starts from RandomAlloc with a seed
// drawn from its private stream, so the batch is reproducible and
// worker-count independent.
func RunBatch(g *core.Game, spec BatchSpec) (*BatchResult, error) {
	if g == nil {
		return nil, fmt.Errorf("dynamics: nil game")
	}
	if spec.Replicates < 1 {
		return nil, fmt.Errorf("dynamics: %d replicates, want >= 1", spec.Replicates)
	}
	switch spec.Process {
	case BestResponseProcess, RadioGreedyProcess:
	case SimultaneousProcess:
		if spec.Inertia < 0 || spec.Inertia > 1 {
			return nil, fmt.Errorf("dynamics: inertia %v outside [0, 1]", spec.Inertia)
		}
	default:
		return nil, fmt.Errorf("dynamics: unknown process %d", int(spec.Process))
	}

	runs, stats, err := engine.Map(spec.Replicates, func(r int, rng *des.RNG) (Result, error) {
		start := RandomAlloc(g, rng.Uint64())
		// Borrow a pooled workspace per replicate: steady-state batches
		// recycle one workspace per worker instead of allocating fresh DP
		// slabs for every run.
		ws := core.Workspaces.Get()
		defer core.Workspaces.Put(ws)
		opts := append(append([]Option(nil), spec.Opts...),
			WithSeed(rng.Uint64()), WithWorkspace(ws))
		switch spec.Process {
		case BestResponseProcess:
			return RunBestResponse(g, start, opts...)
		case RadioGreedyProcess:
			return RunRadioGreedy(g, start, opts...)
		default:
			return RunSimultaneous(g, start, spec.Inertia, opts...)
		}
	}, engine.Workers(spec.Workers), engine.Seed(spec.Seed))
	if err != nil {
		return nil, err
	}

	out := &BatchResult{Runs: runs, Engine: stats}
	for _, res := range runs {
		if res.Converged {
			out.Converged++
		}
		out.MeanRounds += float64(res.Rounds)
		out.MeanMoves += float64(res.Moves)
	}
	out.MeanRounds /= float64(spec.Replicates)
	out.MeanMoves /= float64(spec.Replicates)
	return out, nil
}
