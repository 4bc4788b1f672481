package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/journal"
	"github.com/multiradio/chanalloc/internal/obs"
)

// journalExecs counts actual task executions — the proof that resumed jobs
// are filled from the journal, never re-run.
var journalExecs atomic.Int64

// stuckHold, while true, makes chaos/stuck jobs block (bounded) — the
// crash-loop join-wait test's way of keeping jobs unfinishable.
var stuckHold atomic.Bool

func init() {
	MustRegisterTask("journal/count", func(_ struct{}, job int, rng *des.RNG) (any, error) {
		journalExecs.Add(1)
		return confResult{Job: job, Acc: rng.Uint64()}, nil
	})
	// chaos/slow stretches batches so kills land mid-flight; the sleep never
	// shows in the result.
	MustRegisterTask("chaos/slow", func(_ struct{}, job int, rng *des.RNG) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return confResult{Job: job, Acc: rng.Uint64()*31 + uint64(job)}, nil
	})
	MustRegisterTask("chaos/stuck", func(_ struct{}, job int, rng *des.RNG) (any, error) {
		for i := 0; i < 6000 && stuckHold.Load(); i++ {
			time.Sleep(5 * time.Millisecond)
		}
		return confResult{Job: job}, nil
	})
}

// runWorkers starts n in-process JoinAndServe workers against addr and
// returns an idempotent stop function (also registered as cleanup).
func runWorkers(t *testing.T, addr string, n int, opts ...JoinOption) func() {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			JoinAndServe(addr, append([]JoinOption{
				WithJoinStop(stop), WithJoinRetryWait(5 * time.Millisecond),
			}, opts...)...)
		}()
	}
	var once sync.Once
	f := func() { once.Do(func() { close(stop); wg.Wait() }) }
	t.Cleanup(f)
	return f
}

// obsValue reads one counter from a snapshot (0 when absent).
func obsValue(s []obs.Sample, name string) int64 {
	for _, m := range s {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestClusterJournalFullResume: a journaled batch, then the same batch
// resumed against the finished journal with ZERO workers — every job fills
// from the checkpoint, byte-identical, without dispatching anything.
func TestClusterJournalFullResume(t *testing.T) {
	const n = 15
	params := []byte(`{"mul":31,"label":"jnl"}`)
	path := filepath.Join(t.TempDir(), "sweep.journal")

	before := obs.Snapshot()
	c1, err := NewCluster("127.0.0.1:0",
		WithJournal(path), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runWorkers(t, c1.Addr(), 2)
	want, stats1, err := c1.RunTask("conformance/draw", params, n, Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Resumed != 0 {
		t.Fatalf("fresh journal run resumed %d jobs", stats1.Resumed)
	}
	stop1()
	c1.Close()
	mid := obs.Snapshot()
	if d := obsValue(mid, "engine_journal_writes_total") - obsValue(before, "engine_journal_writes_total"); d != n {
		t.Fatalf("journal_writes_total moved by %d, want %d", d, n)
	}

	// Resume with NO workers: the journal alone must satisfy the batch.
	c2, err := NewCluster("127.0.0.1:0",
		WithJournal(path), WithResume(true), WithJoinWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, stats2, err := c2.RunTask("conformance/draw", params, n, Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != n || stats2.Workers != 0 {
		t.Fatalf("full resume: stats %+v, want Resumed=%d Workers=0", stats2, n)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d: %s (live) vs %s (resumed)", job, want[job], got[job])
		}
	}
	after := obs.Snapshot()
	if d := obsValue(after, "engine_resumed_jobs_total") - obsValue(mid, "engine_resumed_jobs_total"); d != n {
		t.Fatalf("resumed_jobs_total moved by %d, want %d", d, n)
	}
	if d := obsValue(after, "engine_journal_writes_total") - obsValue(mid, "engine_journal_writes_total"); d != 0 {
		t.Fatalf("full resume wrote %d journal entries, want 0", d)
	}
}

// TestClusterJournalResumeSkipsExecution: with a handcrafted journal holding
// half the batch, resume executes ONLY the other half — proven by a task
// execution counter — and fans in byte-identical to the in-process backend.
func TestClusterJournalResumeSkipsExecution(t *testing.T) {
	const n, root = 12, 9
	params := []byte(`{}`)
	want, _, err := NewInProcess().RunTask("journal/count", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint the even jobs, exactly as a dead coordinator would have.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := journal.Create(path, journal.Header{
		Task:      "journal/count",
		ParamsSHA: journal.ParamsDigest(params),
		Seed:      root,
		Jobs:      n,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for job := 0; job < n; job += 2 {
		if err := j.Append(journal.Entry{Job: job, Value: want[job]}); err != nil {
			t.Fatal(err)
		}
		recovered++
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster("127.0.0.1:0",
		WithJournal(path), WithResume(true), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runWorkers(t, c.Addr(), 1)
	execsBefore := journalExecs.Load()
	got, stats, err := c.RunTask("journal/count", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != recovered {
		t.Fatalf("Resumed = %d, want %d", stats.Resumed, recovered)
	}
	if execs := journalExecs.Load() - execsBefore; execs != int64(n-recovered) {
		t.Fatalf("resume executed %d jobs, want %d (recovered jobs must not re-run)", execs, n-recovered)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d: %s (inprocess) vs %s (resumed cluster)", job, want[job], got[job])
		}
	}
}

// TestClusterJournalMismatchFails: resuming a journal written for a
// different seed is refused loudly, before any dispatch.
func TestClusterJournalMismatchFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	params := []byte(`{"mul":3}`)
	c1, err := NewCluster("127.0.0.1:0", WithJournal(path), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c1.Addr(), 1)
	if _, _, err := c1.RunTask("conformance/draw", params, 4, Seed(1)); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := NewCluster("127.0.0.1:0",
		WithJournal(path), WithResume(true), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, _, err = c2.RunTask("conformance/draw", params, 4, Seed(2))
	if err == nil || !strings.Contains(err.Error(), "identity mismatch") {
		t.Fatalf("seed-mismatched resume: %v, want identity mismatch", err)
	}
}

// TestClusterJournaledFailuresResume: failed jobs checkpoint too, and a full
// resume surfaces the identical lowest-index error without re-running.
func TestClusterJournaledFailuresResume(t *testing.T) {
	const want = "engine: job 3: job 3 boom"
	path := filepath.Join(t.TempDir(), "sweep.journal")
	c1, err := NewCluster("127.0.0.1:0", WithJournal(path), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c1.Addr(), 1)
	_, _, err = c1.RunTask("conformance/fail", []byte("{}"), 17, Seed(42))
	if err == nil || err.Error() != want {
		t.Fatalf("live run error %v, want %q", err, want)
	}
	c1.Close()

	c2, err := NewCluster("127.0.0.1:0",
		WithJournal(path), WithResume(true), WithJoinWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, stats, err := c2.RunTask("conformance/fail", []byte("{}"), 17, Seed(42))
	if err == nil || err.Error() != want {
		t.Fatalf("resumed error %v, want %q", err, want)
	}
	if stats.Resumed != 17 {
		t.Fatalf("Resumed = %d, want 17", stats.Resumed)
	}
}

// journalLines counts checkpoint entries currently on disk (header excluded).
func journalLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n")) - 1
}

// killResumeRoundTrip is the shared harness for the acceptance criterion: a
// journaled cluster batch killed mid-flight, then resumed by a fresh
// coordinator, fans in byte-identical to the uninterrupted baseline — under
// plain TCP and TLS alike.
func killResumeRoundTrip(t *testing.T, clusterOpts []RemoteOption, joinOpts []JoinOption) {
	const n, root = 40, 11
	params := []byte(`{"mul":7,"label":"kill"}`)
	want, _, err := NewInProcess().RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")

	c1, err := NewCluster("127.0.0.1:0", append([]RemoteOption{
		WithJournal(path), WithJoinWait(10 * time.Second),
	}, clusterOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runWorkers(t, c1.Addr(), 2, joinOpts...)
	// Kill the coordinator once a handful of jobs are checkpointed.
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if data, err := os.ReadFile(path); err == nil &&
				bytes.Count(data, []byte("\n")) >= 6 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		c1.Close()
	}()
	_, _, err = c1.RunTask("chaos/slow", params, n, Seed(root))
	if err == nil {
		t.Fatal("killed coordinator still completed the batch (kill landed too late)")
	}
	stop1()
	c1.Close()
	done := journalLines(t, path)
	if done < 1 || done >= n {
		t.Fatalf("journal holds %d entries after the kill, want mid-batch", done)
	}

	before := obs.Snapshot()
	c2, err := NewCluster("127.0.0.1:0", append([]RemoteOption{
		WithJournal(path), WithResume(true), WithJoinWait(10 * time.Second),
	}, clusterOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	runWorkers(t, c2.Addr(), 2, joinOpts...)
	got, stats, err := c2.RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed < 1 || stats.Resumed >= n {
		t.Fatalf("Resumed = %d, want a mid-batch count", stats.Resumed)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d: %s (baseline) vs %s (kill+resume)", job, want[job], got[job])
		}
	}
	// Reconciliation: what resumed plus what the second run wrote is the batch.
	after := obs.Snapshot()
	resumed := obsValue(after, "engine_resumed_jobs_total") - obsValue(before, "engine_resumed_jobs_total")
	writes := obsValue(after, "engine_journal_writes_total") - obsValue(before, "engine_journal_writes_total")
	if resumed != int64(stats.Resumed) || resumed+writes != n {
		t.Fatalf("obs reconciliation: resumed=%d writes=%d, want resumed=%d and sum=%d",
			resumed, writes, stats.Resumed, n)
	}
}

// TestClusterKillResumeByteIdentical: the plain-TCP acceptance criterion.
func TestClusterKillResumeByteIdentical(t *testing.T) {
	killResumeRoundTrip(t, nil, nil)
}

// TestClusterKillResumeByteIdenticalTLS: the same criterion with TLS on the
// coordinator listener and every worker dial.
func TestClusterKillResumeByteIdenticalTLS(t *testing.T) {
	srvCfg, cliCfg := testTLSPair(t)
	killResumeRoundTrip(t,
		[]RemoteOption{WithTLS(srvCfg)},
		[]JoinOption{WithJoinTLS(cliCfg)})
}

// TestClusterJoinWaitBoundedUnderFlap: a worker stuck in a join/crash loop
// (registers, holds a job, dies before finishing anything) must NOT renew
// the join-wait forever — the batch fails once the accumulated workerless
// time burns the budget.
func TestClusterJoinWaitBoundedUnderFlap(t *testing.T) {
	stuckHold.Store(true)
	defer stuckHold.Store(false)
	c := tunedCluster(t, nil, 20*time.Millisecond, 0, WithJoinWait(200*time.Millisecond))
	defer c.Close()

	// The flapper: join, live 20ms without completing anything, die, rejoin.
	quit := make(chan struct{})
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for {
			select {
			case <-quit:
				return
			default:
			}
			stopW := make(chan struct{})
			sessionDone := make(chan struct{})
			go func() {
				defer close(sessionDone)
				JoinAndServe(c.Addr(), WithJoinStop(stopW), WithJoinRetryWait(5*time.Millisecond))
			}()
			time.Sleep(20 * time.Millisecond)
			close(stopW)
			<-sessionDone
		}
	}()
	// Release stuck jobs BEFORE waiting the flapper out, or its last session
	// sits in a 30s task execution the closed conn cannot interrupt.
	defer func() { stuckHold.Store(false); close(quit); <-flapDone }()

	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.RunTask("chaos/stuck", []byte("{}"), 4, Seed(1))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("flapping worker somehow completed stuck jobs")
		}
		if !strings.Contains(err.Error(), "cluster backend") {
			t.Fatalf("unexpected failure: %v", err)
		}
		t.Logf("bounded failure after %v: %v", time.Since(start), err)
	case <-time.After(30 * time.Second):
		t.Fatal("join-wait never expired under a crash-looping worker — the flap is renewing the clock")
	}
}
