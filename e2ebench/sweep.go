package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ca "github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/journal"
)

// clusterWindow is the cluster backend's default per-peer window; the
// benchmark leaves it at the default and records it.
const clusterWindow = 8

// journalFsync is the journal's fsync cadence: an fsync after this many
// appends. The journal lives in the checkout, which may sit on a shared
// disk, so appends never fsync mid-batch; the per-batch fsyncs at create
// and close stay. Entry encoding, digests and writes stay in the path.
const journalFsync = 1 << 30

// warmJobs is the size of the warm-up batch every sweep set-up runs.
const warmJobs = 16

// ringParams mirrors the ring task's batch-wide params blob, which every
// job frame carries and every job decodes.
type ringParams struct {
	Specs []ca.DistRingSpec `json:"specs"`
}

// ringBatches generates the workload's seeded batches of 8-user
// best-response ring specs over 3–8 channels with 1–4 radios each, under
// one of three rate families.
func ringBatches(w *workload, seed uint64) [][]ca.DistRingSpec {
	rng := rand.New(rand.NewPCG(seed, 0x72696e67))
	rates := []ca.DistRateSpec{
		{Kind: "tdma", R0: 54},
		{Kind: "harmonic", R0: 54, Param: 1},
		{Kind: "geometric", R0: 54, Param: 0.8},
	}
	out := make([][]ca.DistRingSpec, w.distinctBatches)
	for b := range out {
		specs := make([]ca.DistRingSpec, w.batchJobs)
		for i := range specs {
			channels := 3 + rng.IntN(6)
			specs[i] = ca.DistRingSpec{
				Users:    8,
				Channels: channels,
				Radios:   1 + rng.IntN(min(channels, 4)),
				Rate:     rates[rng.IntN(len(rates))],
				Policies: []string{"bestresponse"},
			}
		}
		out[b] = specs
	}
	return out
}

// sweepCluster is a cluster backend with one in-process joined worker.
type sweepCluster struct {
	cl   *ca.ClusterBackend
	stop chan struct{}
	done chan error
}

// openCluster listens on loopback, starts the joining worker and runs one
// warm-up batch, which returns once the worker has joined and served it.
// This is a sweep workload's set-up.
func openCluster(journalPath string, warm []ca.DistRingSpec, seed uint64) (*sweepCluster, error) {
	cl, err := ca.NewClusterBackend("127.0.0.1:0",
		ca.ClusterJournal(journalPath), ca.ClusterJournalFsync(journalFsync))
	if err != nil {
		return nil, err
	}
	c := &sweepCluster{cl: cl, stop: make(chan struct{}), done: make(chan error, 1)}
	go func() { c.done <- ca.EngineJoinAndServe(cl.Addr(), ca.JoinStop(c.stop), ca.JoinBackoffSeed(seed)) }()
	if _, _, err := ca.RunDistributedRingBatch(cl, warm, ca.EngineSeed(seed)); err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up batch: %w", err), c.close())
	}
	return c, nil
}

// close stops the worker and the backend and waits for the worker.
func (c *sweepCluster) close() error {
	close(c.stop)
	err := c.cl.Close()
	return errors.Join(err, <-c.done)
}

// sweepRun is what a timed sequence of batches produced.
type sweepRun struct {
	batchLat []time.Duration
	jobTimes []time.Duration
	results  [][]ca.DistRingResult
	which    []int // distinct batch each run used
	jobs     int
	requeues int
}

// runBatches runs batches (cycling the distinct ones) until the deadline
// has passed and at least minBatches ran; a zero deadline runs exactly
// minBatches. afterBatch, when set, is told how many batches have run.
func runBatches(c *sweepCluster, batches [][]ca.DistRingSpec, seed uint64, deadline time.Time, minBatches int,
	afterBatch func(done int)) (*sweepRun, error) {
	r := &sweepRun{}
	for b := 0; ; b++ {
		specs := batches[b%len(batches)]
		t0 := time.Now()
		res, st, err := ca.RunDistributedRingBatch(c.cl, specs, ca.EngineSeed(seed))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		r.batchLat = append(r.batchLat, t1.Sub(t0))
		r.jobTimes = append(r.jobTimes, st.JobTimes...)
		r.results = append(r.results, res)
		r.which = append(r.which, b%len(batches))
		r.jobs += len(specs)
		r.requeues += st.Requeues
		if afterBatch != nil {
			afterBatch(b + 1)
		}
		if b+1 >= minBatches && (deadline.IsZero() || t1.After(deadline)) {
			return r, nil
		}
	}
}

// journalWrites reads the engine's journal-append counter.
func journalWrites() int64 { return ca.ObsFlat(ca.ObsSnapshot())["engine_journal_writes_total"] }

// checkSweep is the sweep correctness gate: every ring converged on a Nash
// equilibrium, and every batch's results are byte-identical to the
// in-process backend's for the same specs and seed.
func checkSweep(rep *report, batches [][]ca.DistRingSpec, seed uint64, r *sweepRun) error {
	ref := make([][]byte, len(batches))
	for i, specs := range batches {
		res, _, err := ca.RunDistributedRingBatch(ca.NewInProcessBackend(), specs, ca.EngineSeed(seed))
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		if ref[i], err = json.Marshal(res); err != nil {
			return err
		}
	}
	for b, res := range r.results {
		for j, rr := range res {
			if !rr.Converged || !rr.NE {
				rep.failed++
				rep.fail("batch %d job %d: converged=%v ne=%v", b, j, rr.Converged, rr.NE)
			}
		}
		got, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, ref[r.which[b]]) {
			rep.fail("batch %d: cluster results differ from the in-process backend's", b)
		}
	}
	return nil
}

func sweepEnv(w *workload, o options, ops int) []kv {
	return append(baseEnv(w, o),
		kv{"verify_workers", "n/a (no live server)"},
		kv{"backend", "cluster, 1 in-process joined worker over loopback TCP"},
		kv{"cluster_window", fmt.Sprintf("%d (default)", clusterWindow)},
		kv{"journal_dir", fsKind(o.outDir) + " (in the checkout)"},
		kv{"journal_fsync", fmt.Sprintf("every %d appends (per-batch create and close only)", journalFsync)},
		kv{"batch_jobs", fmt.Sprint(w.batchJobs)},
		kv{"ops", fmt.Sprint(ops)},
	)
}

// setUpSweep prepares the journal directory and sets up setupReps times,
// keeping the last cluster open.
func setUpSweep(w *workload, o options, batches [][]ca.DistRingSpec) (*sweepCluster, setupTimes, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, setupTimes{}, err
	}
	path := filepath.Join(o.outDir, "journal-"+w.name+".ndjson")
	warm := batches[0][:min(warmJobs, w.batchJobs)]
	var c *sweepCluster
	var setups setupTimes
	for r := 0; r < w.setupReps; r++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, setups, fmt.Errorf("closing set-up cluster: %w", err)
			}
		}
		if err := setups.measure(func() (err error) {
			c, err = openCluster(path, warm, o.seed)
			return err
		}); err != nil {
			return nil, setups, fmt.Errorf("set-up: %w", err)
		}
	}
	return c, setups, nil
}

// runSweep is the untraced sweep run.
func runSweep(w *workload, o options) (*report, error) {
	batches := ringBatches(w, o.seed)
	c, setups, err := setUpSweep(w, o, batches)
	if err != nil {
		return nil, err
	}
	writes0 := journalWrites()
	pr := startProbe()
	start := time.Now()
	r, err := runBatches(c, batches, o.seed, start.Add(time.Duration(o.seconds)*time.Second), w.minBatches,
		func(done int) {
			if done == w.rssBatches {
				pr.freezePeak()
			}
		})
	elapsed := time.Since(start)
	seen := pr.finish()
	writes := journalWrites() - writes0
	if cerr := c.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	rep := &report{env: append(sweepEnv(w, o, r.jobs), kv{"steal_pct", fmt.Sprintf("%.1f", seen.stealPct)}), attempted: r.jobs}
	if err := checkSweep(rep, batches, o.seed, r); err != nil {
		return nil, err
	}
	if writes != int64(r.jobs) {
		rep.fail("journal took %d appends for %d jobs", writes, r.jobs)
	}
	if r.requeues != 0 {
		rep.fail("%d jobs requeued with a healthy worker", r.requeues)
	}

	rep.add("throughput_per_s", float64(r.jobs)/elapsed.Seconds(), "1/s", r.jobs,
		fmt.Sprintf("jobs per second over %d batches", len(r.batchLat)))
	lat := r.batchLat
	if w.latencyUnit == "job" {
		lat = r.jobTimes
	}
	us := micros(lat)
	rep.add("latency_p50_us", percentile(us, 50), "us", len(us), "per "+w.latencyUnit+latencySpan(w))
	rep.add("latency_p90_us", percentile(us, steadyTailPct), "us", len(us), tailNote(len(us), steadyTailPct, w.latencyUnit))
	rep.add(tailName(w.tailPct), percentile(us, w.tailPct), "us", len(us), tailNote(len(us), w.tailPct, w.latencyUnit))
	setups.add(rep, "listen, worker join, one warm-up batch")
	rep.add("peak_rss_mb", seen.peakMB, "MB", seen.rssSamples, fmt.Sprintf("peak resident set of the whole process (coordinator, worker) over the first %d batches", w.rssBatches))
	rep.add("error_rate", float64(rep.failed)/float64(r.jobs), "ratio", r.jobs, "failed jobs / jobs")
	rep.add("cpu_us_per_op", float64(seen.cpu)/float64(time.Microsecond)/float64(r.jobs), "us", r.jobs, "process CPU time (user+system) per job")
	return rep, nil
}

func latencySpan(w *workload) string {
	if w.latencyUnit == "job" {
		return ", coordinator dispatch to result (EngineStats.JobTimes)"
	}
	return ", submit to fan-in"
}

// runRing executes one ring spec in process from the benchmark's own code,
// as the ring task does for a best-response spec.
func runRing(spec ca.DistRingSpec) (ca.DistRingResult, error) {
	rate, err := spec.Rate.Build()
	if err != nil {
		return ca.DistRingResult{}, err
	}
	g, err := ca.NewGame(spec.Users, spec.Channels, spec.Radios, rate)
	if err != nil {
		return ca.DistRingResult{}, err
	}
	local, err := ca.RunDistributed(g, ca.UniformPolicies(spec.Users, func(int) ca.Policy {
		return &ca.BestResponsePolicy{Rate: rate}
	}))
	if err != nil {
		return ca.DistRingResult{}, err
	}
	return ca.DistRingResult{
		Matrix:    local.Alloc.Matrix(),
		NE:        len(local.Agents) > 0 && local.Agents[0].IsNE,
		Converged: local.Stats.Converged,
		Rounds:    local.Stats.Rounds,
		Moves:     local.Stats.Moves,
		Messages:  local.Stats.Messages,
	}, nil
}

// maxDecodes bounds how many times a traced run decodes one batch's params
// blob (every job of the batch does it once).
const maxDecodes = 32

// traceSweep is the traced sweep run. It runs a fixed number of batches
// twice: over the cluster untraced (job round trips, requeues, journal
// writes, allocation per job), then in process with spans around each
// layer call: decoding the params blob, executing each ring (and again
// without a span, for the tracing overhead), and appending each result to
// a journal.
func traceSweep(w *workload, o options) (*report, error) {
	q := w.tracedUnits(o.seconds)
	batches := ringBatches(w, o.seed)
	c, _, err := setUpSweep(w, o, batches)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	writes0 := journalWrites()
	r, err := runBatches(c, batches, o.seed, time.Time{}, q, nil)
	writes := journalWrites() - writes0
	runtime.ReadMemStats(&ms1)
	if cerr := c.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	rep := &report{env: sweepEnv(w, o, r.jobs), attempted: r.jobs}
	if err := checkSweep(rep, batches, o.seed, r); err != nil {
		return nil, err
	}

	tr := newTracer(2*r.jobs + q*maxDecodes)
	jpath := filepath.Join(o.outDir, "journal-"+w.name+"-mirror.ndjson")
	var paramBytes, messages, rounds int
	var plain []time.Duration
	job := 0
	for b, res := range r.results {
		specs := batches[r.which[b]]
		blob, err := json.Marshal(ringParams{Specs: specs})
		if err != nil {
			return nil, err
		}
		paramBytes += len(blob) * len(specs)
		for d := 0; d < min(maxDecodes, len(specs)); d++ {
			sp := tr.begin(spanParamsDecode, -1, b)
			var p ringParams
			err := json.Unmarshal(blob, &p)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		jnl, err := journal.Create(jpath, journal.Header{Task: ca.DistRingTask, ParamsSHA: journal.ParamsDigest(blob),
			Seed: o.seed, Jobs: len(specs)}, journalFsync)
		if err != nil {
			return nil, err
		}
		for i, spec := range specs {
			// Run each ring twice, traced and untraced, alternating which
			// goes first so neither always runs on warm caches.
			var got, again ca.DistRingResult
			var errT, errP error
			traced := func() {
				sp := tr.begin(spanRingExec, -1, job)
				got, errT = runRing(spec)
				tr.end(sp)
			}
			untraced := func() {
				t0 := time.Now()
				again, errP = runRing(spec)
				plain = append(plain, time.Since(t0))
			}
			if job%2 == 0 {
				traced()
				untraced()
			} else {
				untraced()
				traced()
			}
			if err := errors.Join(errT, errP); err != nil {
				jnl.Close()
				return nil, err
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				jnl.Close()
				return nil, err
			}
			againJSON, _ := json.Marshal(again)
			clusterJSON, _ := json.Marshal(res[i])
			if !bytes.Equal(gotJSON, clusterJSON) || !bytes.Equal(gotJSON, againJSON) {
				rep.fail("batch %d job %d: in-process ring mirror disagrees with the cluster result", b, i)
			}
			messages += got.Messages
			rounds += got.Rounds
			sp := tr.begin(spanJournalAppend, -1, job)
			err = jnl.Append(journal.Entry{Job: i, Value: gotJSON})
			tr.end(sp)
			if err != nil {
				jnl.Close()
				return nil, err
			}
			job++
		}
		if err := jnl.Close(); err != nil {
			return nil, err
		}
	}
	if err := tr.write(spanPath(o, w)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	total, _, count := tr.selfTimes()
	perCall := func(name string) float64 {
		return float64(total[name]) / float64(time.Microsecond) / float64(max(count[name], 1))
	}
	jobs := float64(r.jobs)
	var wall time.Duration
	for _, d := range r.batchLat {
		wall += d
	}
	exec := perCall("dist.ring_exec")
	jt := micros(r.jobTimes)
	rep.notExercised("live.", "transport.", "hetero.", "dynamics.", "core.")
	rep.add("engine.job_rtt_p50_us", percentile(jt, 50), "us", len(jt), "coordinator dispatch to result (EngineStats.JobTimes)")
	rep.add("engine.job_rtt_p99_us", percentile(jt, 99), "us", len(jt), tailNote(len(jt), 99, "job"))
	rep.add("engine.params_bytes_per_job", float64(paramBytes)/jobs, "bytes", r.jobs, "params blob every job frame carries")
	rep.add("engine.params_decode_us", perCall("engine.params_decode"), "us", count["engine.params_decode"], "mean decode of one job's params blob")
	rep.add("engine.overhead_us_per_job", float64(wall)/float64(time.Microsecond)/jobs-exec, "us", r.jobs,
		"(batch wall - ring execution) / jobs")
	rep.add("engine.requeues", float64(r.requeues), "count", len(r.batchLat), "jobs requeued")
	rep.add("dist.ring_exec_us", exec, "us", r.jobs, "mean in-process ring execution per job")
	rep.add("dist.messages_per_job", float64(messages)/jobs, "count", r.jobs, "protocol messages per ring")
	rep.add("dist.rounds_per_job", float64(rounds)/jobs, "count", r.jobs, "token-ring rounds per ring")
	rep.add("journal.append_us", perCall("journal.append"), "us", count["journal.append"], "mean append: encode, digest, buffered write")
	rep.add("journal.writes", float64(writes), "count", len(r.batchLat), "engine_journal_writes_total delta over the cluster phase")
	gcMetrics(rep, &ms0, &ms1, r.jobs, "job")
	rep.add("trace.overhead_us", pairedOverhead(tr.durations(spanRingExec), plain), "us", r.jobs,
		"median per-job difference: traced ring execution minus the same untraced")
	if writes != int64(r.jobs) {
		rep.fail("journal took %d appends for %d jobs", writes, r.jobs)
	}
	return rep, nil
}
