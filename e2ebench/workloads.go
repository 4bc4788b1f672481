package main

import "fmt"

// workload is one seeded input set the benchmark runs. Every run of a
// workload with the same seed does identical work in its traced phase and
// replays a prefix of the same pre-generated input in its timed phase.
type workload struct {
	name string
	why  string
	kind string // "churn" or "sweep"

	// Churn: DefaultChurnSpec(channels, users, ...) replayed closed-loop
	// over one TCP connection against an in-process live server with
	// allocd's default configuration (verify on) and verifyWorkers.
	channels, users int
	// maxEventRate sizes the pre-encoded trace: the timed phase holds at
	// most maxEventRate×seconds events and ends early if it runs out.
	maxEventRate int
	// verifyWorkers is the live server's verify worker count; < 1 means
	// NumCPU, allocd's default.
	verifyWorkers int

	// Sweep: repeated RunDistributedRingBatch batches of batchJobs ring
	// specs on the cluster backend with one in-process joined worker.
	// distinctBatches seeded batches are cycled through.
	batchJobs, distinctBatches int
	// minBatches is the fewest batches a timed phase runs, however long
	// they take, so the latency tail always has its samples.
	minBatches int
	// rssBatches is how many batches peak_rss_mb covers. The ring
	// protocol's 10 s read deadlines keep every finished ring's pipes
	// reachable for 10 s, so a peak over a fixed time would grow with
	// throughput; over a fixed number of batches (done within 10 s) it
	// measures the work.
	rssBatches int

	// latencyUnit names what one latency sample times. latency_p90_us is
	// the tail every workload reports; tailPct is the highest percentile
	// with at least minTail samples beyond it at the expected sample
	// count, reported as an extra row.
	latencyUnit string
	tailPct     float64

	// setupReps is how many times a run sets up; setup_s is the median
	// CPU time of one.
	setupReps int
	// tracedPerSecond sizes the traced run's fixed work: events (churn) or
	// batches (sweep) per second of --seconds, independent of speed so
	// that its counts repeat exactly.
	tracedPerSecond float64
}

// workloads is the benchmark's table. Each entry says why it exists and
// which layer it stresses.
var workloads = []*workload{
	{
		// Per-event kernel work is a few µs at N=8, C=4, so this workload
		// measures the live layer's framing (decode/encode) and the
		// loopback transport. A kernel (core/dynamics/hetero) change should
		// not move it. The server verifies with one worker: with allocd's
		// default NumCPU workers the 8-DP verify fan-out puts the event
		// latency into one of two modes (about 31 or 43 µs at p50 on a
		// 2-vCPU host) that switch within and across runs, so no bound
		// could hold; churn-c16-n1024 keeps the default fan-out.
		name: "churn-c4-n8",
		why:  "allocd churn at N=8, C=4 with one verify worker: framing and the loopback transport dominate; kernel changes should not move it",
		kind: "churn", channels: 4, users: 8, maxEventRate: 60000, verifyWorkers: 1,
		latencyUnit: "event", tailPct: 99,
		setupReps: 101, tracedPerSecond: 2000,
	},
	{
		// N >> C (the many-users, few-channels regime of Bistritz &
		// Leshem): verify runs 1024 best-response DPs per event and budget
		// cuts void warm verdicts, forcing full re-equilibration sweeps,
		// so the core/dynamics/hetero kernels dominate and framing should
		// not move it. The 1024 initial joins are its set-up: they only
		// add load, so setup_s measures the warm-start join path. The
		// server runs allocd's default verify fan-out (NumCPU workers).
		name: "churn-c16-n1024",
		why:  "allocd churn at N=1024, C=16: verify DPs and re-equilibration sweeps dominate; setup_s times the 1024 warm-start joins",
		kind: "churn", channels: 16, users: 1024, maxEventRate: 4000, verifyWorkers: 0,
		latencyUnit: "event", tailPct: 99,
		setupReps: 3, tracedPerSecond: 100,
	},
	{
		// The E12 distbatch shape: 16 small best-response rings per batch.
		// Params are small, so ring execution and the per-batch engine
		// cost (dispatch, wire, journal, fan-in) dominate.
		name: "sweep-ring-b16",
		why:  "16-job cluster batches of 8-user best-response rings: ring execution and per-batch engine cost (dispatch, wire, journal, fan-in) dominate",
		kind: "sweep", batchJobs: 16, distinctBatches: 8, minBatches: 200, rssBatches: 200,
		latencyUnit: "batch", tailPct: 95,
		setupReps: 21, tracedPerSecond: 8,
	},
	{
		// The same jobs in 1024-job batches: every job frame carries the
		// whole batch's params blob and every job decodes it, so shipping
		// and decoding params dominate. A change trading small-batch
		// latency for large-batch throughput (or back) shows up against
		// sweep-ring-b16. Too few batches fit a run for a batch tail, so
		// its latency is per job (dispatch to result, Stats.JobTimes).
		name: "sweep-ring-b1024",
		why:  "the same ring jobs in 1024-job batches: shipping and decoding the per-batch params blob in every job dominates",
		kind: "sweep", batchJobs: 1024, distinctBatches: 1, minBatches: 2, rssBatches: 1,
		latencyUnit: "job", tailPct: 99,
		setupReps: 21, tracedPerSecond: 0.1,
	},
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// tracedUnits is the traced run's fixed amount of work: at least one unit.
func (w *workload) tracedUnits(seconds int) int {
	n := int(w.tracedPerSecond * float64(seconds))
	if n < 1 {
		n = 1
	}
	return n
}
