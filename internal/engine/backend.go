package engine

import (
	"encoding/json"
	"fmt"

	"github.com/multiradio/chanalloc/internal/des"
)

// Backend executes task batches. The contract every backend must honour is
// the engine's determinism guarantee, restated at the batch boundary:
//
//   - jobs 0..n-1 of a batch each run the named registered task with the
//     batch's parameter blob and a private PRNG stream seeded by
//     JobSeed(root, job) — never by worker identity or scheduling;
//   - results fan in as JSON, ordered by job index;
//   - if any job fails, every job still runs, and the error of the
//     lowest-indexed failing job surfaces as "engine: job %d: <cause>"
//     with nil results.
//
// Under that contract a batch produces byte-identical results — including
// which error surfaces on failure — whether it runs on the in-process pool,
// sharded over worker subprocesses, or across hosts.
// Only Stats, which report timings and pool shape, may differ. The
// conformance suite in backend_conformance_test.go pins this for every
// backend in the repository.
type Backend interface {
	// Name identifies the backend ("inprocess", "process", "cluster") for
	// logs, flags and error messages.
	Name() string
	// RunTask executes jobs 0..n-1 of the named task and returns their
	// JSON-encoded results in job order. Option semantics: Seed sets the
	// root seed; Workers sizes the in-process pool (the remote backends
	// take their workers at construction instead and ignore Workers).
	RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error)
}

// InProcess is the default Backend: the worker-pool of Map running in the
// coordinating process itself.
type InProcess struct{}

// NewInProcess returns the in-process backend.
func NewInProcess() *InProcess { return &InProcess{} }

// Name implements Backend.
func (*InProcess) Name() string { return "inprocess" }

// RunTask implements Backend over Map: the params blob is decoded once for
// the whole batch and the task runs as ordinary pool jobs, each result
// marshalled to JSON at the job boundary (runJob) so the encoded bytes are
// what every other backend must reproduce. A params decode failure fails
// every job with the same error, exactly as on a remote worker connection.
func (*InProcess) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	if err := checkBatch(task, params); err != nil {
		return nil, Stats{}, err
	}
	bind, _ := taskByName(task)
	run, bindErr := bind(params)
	return Map(n, func(job int, rng *des.RNG) (json.RawMessage, error) {
		if bindErr != nil {
			return nil, bindErr
		}
		return runJob(run, job, rng)
	}, opts...)
}

// surfaceJobErrors applies the tail of the Backend error contract to a
// collected batch: the lowest-indexed failing job's error surfaces first
// (worded identically on every backend — the conformance suite pins the
// bytes), then any job that silently ended up with neither a result nor a
// recorded error is reported against the named backend. The fan-in of the
// remote dispatcher (runRemote).
func surfaceJobErrors(backend string, results []json.RawMessage, errs []string, failed []bool) error {
	for job, msg := range errs {
		if failed[job] {
			return fmt.Errorf("engine: job %d: %s", job, msg)
		}
	}
	for job, res := range results {
		if res == nil && !failed[job] {
			return fmt.Errorf("engine: %s backend lost job %d", backend, job)
		}
	}
	return nil
}

// RunTask runs a registered task over any backend with typed parameters and
// results: params is marshalled once for the whole batch, and each job's
// JSON result is unmarshalled into T.
func RunTask[T any](b Backend, task string, params any, n int, opts ...Option) ([]T, Stats, error) {
	if b == nil {
		return nil, Stats{}, fmt.Errorf("engine: nil backend")
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("engine: encoding params for task %q: %w", task, err)
	}
	encs, stats, err := b.RunTask(task, raw, n, opts...)
	if err != nil {
		return nil, stats, err
	}
	out := make([]T, len(encs))
	for i, enc := range encs {
		if err := json.Unmarshal(enc, &out[i]); err != nil {
			return nil, stats, fmt.Errorf("engine: decoding job %d result of task %q: %w", i, task, err)
		}
	}
	return out, stats, nil
}
