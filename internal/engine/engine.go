// Package engine is a deterministic parallel job runner: fan-out over a
// fixed worker pool, fan-in into index-ordered results. Every job receives
// its own PRNG stream derived from a root seed and its job index only, so a
// batch produces byte-identical results whether it runs on one worker or
// sixty-four — parallelism changes wall-clock time, never output. This is
// the substrate under every batch path in the repository: NE enumeration
// shards, dynamics replicates, batched distributed-protocol runs and the
// experiment suite of cmd/sweep.
//
// The fan-out/fan-in contract is pluggable (see Backend): Map and ForEach
// run closures over the default in-process pool, while registered tasks
// (RegisterTask) can run over any backend — the same pool (InProcess) or
// one of the remote backends (Process, Socket, Cluster), which share one
// windowed dispatcher and differ only in where their workers come from —
// with byte-identical results, because job seeds depend only on (root
// seed, job index).
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/obs"
)

// Stats reports how a batch executed. Timings describe the run; they are
// the only non-deterministic part of a Map result.
type Stats struct {
	// Workers is the pool size the batch actually used: goroutines on the
	// in-process pool, and on the remote backends the worker connections
	// (shards, dialled peers, cluster members) that received at least one
	// of the batch's jobs.
	Workers int
	// Jobs is the number of jobs executed (or aborted by a failure).
	Jobs int
	// Wall is the fan-out-to-fan-in duration of the whole batch.
	Wall time.Duration
	// JobTimes holds per-job execution times, indexed by job.
	JobTimes []time.Duration
	// Requeues counts jobs returned to the work queue after a worker
	// failed — a shard that died, a dial that never connected, a transport
	// lost mid-window, or a cluster member evicted for silence (remote
	// backends only; always 0 in-process). Like the timings, it describes
	// how the batch executed, never what it produced.
	Requeues int
	// Resumed counts jobs recovered from a checkpoint journal instead of
	// executed (remote backends with WithResume; always 0 in-process).
	// Recovered results ARE what an uninterrupted run would have produced —
	// the journal stores the exact result bytes — so like Requeues this
	// describes execution, not output.
	Resumed int
}

// TotalJobTime sums the per-job times — the serial cost the pool amortised.
func (s Stats) TotalJobTime() time.Duration {
	var total time.Duration
	for _, d := range s.JobTimes {
		total += d
	}
	return total
}

// config carries the functional options of Map and ForEach.
type config struct {
	workers int
	seed    uint64
}

// Option configures a batch run.
type Option func(*config)

// Workers fixes the pool size; n < 1 (and the default) means
// runtime.NumCPU().
func Workers(n int) Option {
	return func(c *config) { c.workers = n }
}

// Seed sets the root seed that every per-job PRNG stream is derived from
// (default 0).
func Seed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// defaultWorkers is the pool (and shard) size when the caller does not fix
// one: every CPU.
func defaultWorkers() int { return runtime.NumCPU() }

// JobSeed derives the seed of one job's PRNG stream from the root seed.
// The derivation depends only on (root, job) — never on worker identity or
// scheduling — which is what makes engine batches reproducible. The root is
// scrambled through SplitMix64 so that neighbouring jobs and neighbouring
// roots land in unrelated streams.
func JobSeed(root uint64, job int) uint64 {
	z := root + 0x9e3779b97f4a7c15*uint64(job+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Map runs jobs 0..n-1 over the worker pool and returns their results in
// job order. fn receives the job index and a private PRNG seeded by
// JobSeed(seed, job). If any job fails, Map still runs every job (so the
// error path is as worker-count independent as the success path) and then
// returns the error of the lowest-indexed failing job; results are nil.
func Map[T any](n int, fn func(job int, rng *des.RNG) (T, error), opts ...Option) ([]T, Stats, error) {
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = defaultWorkers()
	}
	if cfg.workers > n {
		cfg.workers = n
	}
	stats := Stats{Workers: cfg.workers, Jobs: n}
	if n < 0 {
		return nil, stats, fmt.Errorf("engine: negative job count %d", n)
	}
	if fn == nil {
		return nil, stats, fmt.Errorf("engine: nil job function")
	}
	if n == 0 {
		stats.Workers = 0
		return []T{}, stats, nil
	}

	mBatches.Inc()
	mDispatched.Add(uint64(n))
	start := time.Now()
	results := make([]T, n)
	errs := make([]error, n)
	stats.JobTimes = make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job := int(next.Add(1) - 1)
				if job >= n {
					return
				}
				jobStart := time.Now()
				out, err := fn(job, des.NewRNG(JobSeed(cfg.seed, job)))
				took := time.Since(jobStart)
				stats.JobTimes[job] = took
				mCompleted.Inc()
				mDispatchLat.Observe(int64(took))
				if err != nil {
					errs[job] = err
					continue
				}
				results[job] = out
			}
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	obs.Emit("batch", "inprocess", int64(n), int64(cfg.workers), 0)
	for job, err := range errs {
		if err != nil {
			return nil, stats, fmt.Errorf("engine: job %d: %w", job, err)
		}
	}
	return results, stats, nil
}

// ForEach is Map for jobs that produce no value.
func ForEach(n int, fn func(job int, rng *des.RNG) error, opts ...Option) (Stats, error) {
	if fn == nil {
		return Stats{}, fmt.Errorf("engine: nil job function")
	}
	_, stats, err := Map(n, func(job int, rng *des.RNG) (struct{}, error) {
		return struct{}{}, fn(job, rng)
	}, opts...)
	return stats, err
}
