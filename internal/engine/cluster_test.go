package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ndjson"
)

func init() {
	// A deliberately slow task so mid-batch membership changes land while
	// jobs are still streaming (init keeps registration -count-idempotent).
	MustRegisterTask("conformance/slow20ms", func(_ struct{}, job int, rng *des.RNG) (any, error) {
		time.Sleep(20 * time.Millisecond)
		return confResult{Job: job, Acc: rng.Uint64()}, nil
	})
}

// joinWorker runs one JoinAndServe worker against the coordinator for the
// duration of the test.
func joinWorker(t *testing.T, addr string, opts ...JoinOption) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := JoinAndServe(addr, append([]JoinOption{
			WithJoinStop(stop), WithJoinRetryWait(10 * time.Millisecond),
		}, opts...)...); err != nil {
			t.Errorf("worker join: %v", err)
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
}

// tunedCluster starts a coordinator on lis (a fresh loopback listener when
// nil) with the liveness cadence shortened to heartbeat, evicting after
// evict (4× heartbeat when 0), so silence and churn tests run fast.
func tunedCluster(t *testing.T, lis net.Listener, heartbeat, evict time.Duration, opts ...RemoteOption) *Cluster {
	t.Helper()
	if lis == nil {
		var err error
		if lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	c := newCluster(lis, opts)
	c.heartbeat, c.evict = heartbeat, evict
	return c.start()
}

// inprocessWant runs the reference batch on the in-process pool.
func inprocessWant(t *testing.T, n int, seed uint64) ([]json.RawMessage, []byte) {
	t.Helper()
	params, err := json.Marshal(confParams{Mul: 31, Label: "conf"})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := NewInProcess().RunTask("conformance/draw", params, n, Seed(seed), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	return want, params
}

// TestClusterWorkerJoinsAfterDispatchStarts is the membership headline: a
// batch dispatched with ZERO workers waits, a worker that joins after
// dispatch starts receives the jobs, and the results are byte-identical to
// the in-process pool.
func TestClusterWorkerJoinsAfterDispatchStarts(t *testing.T) {
	const n = 23
	want, params := inprocessWant(t, n, 42)
	c, err := NewCluster("127.0.0.1:0", WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	type outcome struct {
		got   []json.RawMessage
		stats Stats
		err   error
	}
	res := make(chan outcome, 1)
	go func() {
		got, stats, err := c.RunTask("conformance/draw", params, n, Seed(42))
		res <- outcome{got, stats, err}
	}()
	// Let dispatch start against an empty membership, then join.
	time.Sleep(100 * time.Millisecond)
	select {
	case out := <-res:
		t.Fatalf("batch finished with no workers: %+v", out)
	default:
	}
	joinWorker(t, c.Addr())

	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.stats.Workers != 1 {
		t.Fatalf("stats %+v: the late joiner should be the batch's one worker", out.stats)
	}
	for job := range want {
		if !bytes.Equal(want[job], out.got[job]) {
			t.Fatalf("job %d differs:\n%s\nvs\n%s", job, want[job], out.got[job])
		}
	}
}

// TestClusterSecondWorkerJoinsMidBatch: a worker joining while a batch is
// already streaming gets a share of the remaining jobs.
func TestClusterSecondWorkerJoinsMidBatch(t *testing.T) {
	const n = 60
	want, _, err := NewInProcess().RunTask("conformance/slow20ms", []byte(`{}`), n, Seed(3), Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster("127.0.0.1:0", WithWindow(2), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	joinWorker(t, c.Addr())

	type outcome struct {
		got   []json.RawMessage
		stats Stats
		err   error
	}
	res := make(chan outcome, 1)
	go func() {
		got, stats, err := c.RunTask("conformance/slow20ms", []byte(`{}`), n, Seed(3))
		res <- outcome{got, stats, err}
	}()
	// ~60 jobs × 20ms on one worker ≈ 1.2s; joining at 150ms leaves the
	// second worker plenty to serve.
	time.Sleep(150 * time.Millisecond)
	joinWorker(t, c.Addr())

	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.stats.Workers != 2 {
		t.Fatalf("stats %+v: the mid-batch joiner should have served", out.stats)
	}
	for job := range want {
		if !bytes.Equal(want[job], out.got[job]) {
			t.Fatalf("job %d differs after mid-batch join", job)
		}
	}
}

// startSilentClusterWorker registers a worker that accepts jobs but never
// replies and never heartbeats — the shape of a wedged or partitioned host.
// It returns a counter of the job frames it swallowed.
func startSilentClusterWorker(t *testing.T, addr string) *atomic.Int64 {
	t.Helper()
	var swallowed atomic.Int64
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	enc, dec := json.NewEncoder(conn), ndjson.NewReader(conn, maxFrameBytes)
	if _, err := registerHandshake(enc, dec, ""); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			var m wireMsg
			if err := dec.Decode(&m); err != nil {
				return
			}
			if m.Type == wireJob {
				swallowed.Add(1)
			}
		}
	}()
	return &swallowed
}

// TestClusterHeartbeatEvictionRequeues is the liveness contract: a worker
// that goes silent mid-window is evicted after the heartbeat deadline, its
// in-flight jobs are requeued to the survivor, and the batch's results are
// byte-identical to the in-process pool.
func TestClusterHeartbeatEvictionRequeues(t *testing.T) {
	const n = 23
	want, params := inprocessWant(t, n, 42)
	c := tunedCluster(t, nil, 25*time.Millisecond, 100*time.Millisecond,
		WithWindow(4),
		WithJoinWait(10*time.Second))
	t.Cleanup(func() { c.Close() })

	swallowed := startSilentClusterWorker(t, c.Addr())
	// Let the silent worker register first so it is guaranteed a window of
	// jobs before the healthy worker drains the queue.
	deadline := time.Now().Add(5 * time.Second)
	for c.reg.Len() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	joinWorker(t, c.Addr())

	got, stats, err := c.RunTask("conformance/draw", params, n, Seed(42))
	if err != nil {
		t.Fatal(err)
	}
	if swallowed.Load() < 1 {
		t.Fatal("the silent worker never received a job; the test exercised nothing")
	}
	if stats.Requeues < 1 {
		t.Fatalf("stats %+v: eviction should have requeued the silent worker's window", stats)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d differs after eviction requeue:\n%s\nvs\n%s", job, want[job], got[job])
		}
	}
	// The silent worker must be out of the membership.
	deadline = time.Now().Add(5 * time.Second)
	for c.reg.Len() > 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.reg.Len(); got != 1 {
		t.Fatalf("membership still has %d entries, want the survivor only", got)
	}
}

// startDyingClusterWorker registers a worker that serves `serve` jobs
// correctly, then drops the connection with the rest of its window in
// flight — the killed-mid-window shape.
func startDyingClusterWorker(t *testing.T, addr string, serve int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := json.NewEncoder(conn), ndjson.NewReader(conn, maxFrameBytes)
	if _, err := registerHandshake(enc, dec, ""); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer conn.Close()
		var session workerSession
		served := 0
		for {
			var m wireMsg
			if err := dec.Decode(&m); err != nil {
				return
			}
			if m.Type != wireJob {
				continue
			}
			if served >= serve {
				return // die with the rest of the window in flight
			}
			served++
			if err := enc.Encode(session.execute(&m)); err != nil {
				return
			}
		}
	}()
}

// TestClusterKilledPeerMidWindowRequeues pins the streaming-dispatch
// fault-tolerance contract: a peer killed with a full window of jobs in
// flight has every one of them requeued, and the surviving peer completes
// the batch byte-identically.
func TestClusterKilledPeerMidWindowRequeues(t *testing.T) {
	const n = 23
	// chaos/slow's 2 ms jobs keep the healthy worker from draining the
	// queue before the dying one is sent its second job: with instant jobs
	// it could, and the test then exercised no requeue.
	params := []byte(`{"mul":31,"label":"conf"}`)
	want, _, err := NewInProcess().RunTask("chaos/slow", params, n, Seed(42), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster("127.0.0.1:0",
		WithWindow(8), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	startDyingClusterWorker(t, c.Addr(), 1) // serve one job, die mid-window
	deadline := time.Now().Add(5 * time.Second)
	for c.reg.Len() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	joinWorker(t, c.Addr())

	got, stats, err := c.RunTask("chaos/slow", params, n, Seed(42))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeues < 1 {
		t.Fatalf("stats %+v: the killed peer's in-flight window should have been requeued", stats)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d differs after mid-window kill:\n%s\nvs\n%s", job, want[job], got[job])
		}
	}
}

// TestClusterJoinWaitTimesOut: a batch with no capable worker for the whole
// join-wait fails with a distinct cluster transport error, not a hang.
func TestClusterJoinWaitTimesOut(t *testing.T) {
	c, err := NewCluster("127.0.0.1:0", WithJoinWait(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, _, err = c.RunTask("conformance/draw", []byte(`{"mul":3}`), 5, Seed(1))
	if err == nil || !strings.Contains(err.Error(), "cluster backend") ||
		!strings.Contains(err.Error(), "unfinished") {
		t.Fatalf("err = %v, want the cluster transport error", err)
	}
}

// TestClusterAuthToken: matching tokens join and serve; a mismatch is a
// loud permanent rejection that does not retry.
func TestClusterAuthToken(t *testing.T) {
	const n = 9
	want, params := inprocessWant(t, n, 7)
	c, err := NewCluster("127.0.0.1:0",
		WithAuthToken("s3cret"), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Wrong token: JoinAndServe must return the rejection immediately even
	// with an unlimited retry budget — the error is permanent.
	errCh := make(chan error, 1)
	go func() { errCh <- JoinAndServe(c.Addr(), WithJoinAuthToken("wrong")) }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "auth token mismatch") {
			t.Fatalf("err = %v, want the auth rejection", err)
		}
		if strings.Contains(err.Error(), "s3cret") {
			t.Fatalf("rejection leaks the token: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a rejected worker must not keep retrying")
	}
	// Token-less worker against an authenticated coordinator: same verdict.
	go func() { errCh <- JoinAndServe(c.Addr()) }()
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "auth token mismatch") {
		t.Fatalf("err = %v, want the auth rejection for a token-less worker", err)
	}

	joinWorker(t, c.Addr(), WithJoinAuthToken("s3cret"))
	got, _, err := c.RunTask("conformance/draw", params, n, Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d differs under auth", job)
		}
	}
}

// TestJoinTruncatedReplyIsTransient: a coordinator dying mid-register-reply
// is transport trouble, not a verdict — the join loop must keep retrying
// (and so exhaust a bounded attempt budget) instead of giving up forever.
func TestJoinTruncatedReplyIsTransient(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var m wireMsg
				if err := json.NewDecoder(conn).Decode(&m); err != nil {
					return
				}
				conn.Write([]byte(`{"type":"hel`)) // die mid-reply
			}(conn)
		}
	}()
	err = JoinAndServe(lis.Addr().String(),
		WithJoinAttempts(2), WithJoinRetryWait(time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("err = %v, want retry exhaustion — a truncated reply must not be permanent", err)
	}
}

// TestJoinStopInterruptsMutePeer: WithJoinStop must end the worker even
// while it is parked awaiting a register reply that never comes (something
// accepted the connection but speaks nothing).
func TestJoinStopInterruptsMutePeer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			_ = conn // accept and stay mute; leak until the test ends
		}
	}()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- JoinAndServe(lis.Addr().String(), WithJoinStop(stop)) }()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stopped worker returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("JoinAndServe ignored stop while awaiting the register reply")
	}
}

// TestClusterWorkerRejoinsAfterCoordinatorRestart: the join loop outlives
// coordinators — a worker keeps serving after its coordinator is torn down
// and a new one binds the same address.
func TestClusterWorkerRejoinsAfterCoordinatorRestart(t *testing.T) {
	const n = 9
	want, params := inprocessWant(t, n, 11)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	c1 := NewClusterOn(lis, WithJoinWait(10*time.Second))
	joinWorker(t, addr)

	got, _, err := c1.RunTask("conformance/draw", params, n, Seed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want[0]) {
		t.Fatal("first coordinator's batch differs")
	}
	c1.Close()

	// Rebind the same address: the worker's retry loop finds the new
	// coordinator and registers again.
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClusterOn(lis2, WithJoinWait(10*time.Second))
	t.Cleanup(func() { c2.Close() })
	got, _, err = c2.RunTask("conformance/draw", params, n, Seed(11))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d differs after coordinator restart", job)
		}
	}
}

// TestClusterJobErrorsAreNotTransportErrors: a task that fails on some
// jobs surfaces Map's error contract through the cluster backend while the
// worker stays registered.
func TestClusterJobErrors(t *testing.T) {
	c, err := NewCluster("127.0.0.1:0", WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	joinWorker(t, c.Addr())
	_, _, err = c.RunTask("conformance/fail", []byte(`{}`), 17, Seed(42))
	if err == nil || err.Error() != "engine: job 3: job 3 boom" {
		t.Fatalf("err = %v, want the pinned job-3 error", err)
	}
	if c.reg.Len() != 1 {
		t.Fatalf("membership %d after job errors, want the worker still registered", c.reg.Len())
	}
}

// TestClusterUnknownTask fails before any dispatch, like every backend.
func TestClusterUnknownTask(t *testing.T) {
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, _, err := c.RunTask("conformance/nope", nil, 3); err == nil ||
		!strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("err = %v, want unknown-task", err)
	}
}

// TestClusterCloseWithSilentProbe pins the teardown guarantee against
// connections that never register: a port-scan-shaped client that dials
// and sends nothing must not pin Close — the coordinator tracks every live
// connection, registered or not, and severs them all.
func TestClusterCloseWithSilentProbe(t *testing.T) {
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.teardown = 2 * time.Second
	probe, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	// Give the accept loop time to hand the probe to an admit goroutine,
	// which then parks awaiting a register frame that never comes.
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on the never-registering connection")
	}
}

// TestClusterClosesSilentRegistration: a peer that connects, sends half a
// register line and goes quiet is closed by the coordinator once
// handshakeGrace passes, instead of holding a goroutine and a descriptor
// until Close.
func TestClusterClosesSilentRegistration(t *testing.T) {
	grace := handshakeGrace
	t.Cleanup(func() { handshakeGrace = grace })
	handshakeGrace = 100 * time.Millisecond
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Registered after the grace restore, so it runs first: every admit
	// goroutine that read the grace has finished before it is put back.
	t.Cleanup(func() { c.Close() })
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"register","version":`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("coordinator still holds a connection whose register never completed")
	}
	if err == nil {
		t.Fatalf("coordinator wrote %d byte(s) to a peer that never finished its register", n)
	}
}

// TestClusterUnixSocket: the whole join/register/dispatch path works over a
// unix socket address.
func TestClusterUnixSocket(t *testing.T) {
	const n = 9
	want, params := inprocessWant(t, n, 5)
	c, err := NewCluster("unix:"+t.TempDir()+"/coord.sock", WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if !strings.HasPrefix(c.Addr(), "unix:") {
		t.Fatalf("Addr() = %q, want a unix: join address", c.Addr())
	}
	joinWorker(t, c.Addr())
	got, _, err := c.RunTask("conformance/draw", params, n, Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d differs over unix socket", job)
		}
	}
}
