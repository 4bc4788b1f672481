package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// framed is one end of an in-memory protocol connection.
type framed struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// newTestPipes returns the client and server ends of a synchronous
// in-memory connection with JSON framing.
func newTestPipes(t *testing.T) (client, server *framed) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	return &framed{c, json.NewEncoder(c), json.NewDecoder(c)},
		&framed{s, json.NewEncoder(s), json.NewDecoder(s)}
}

// startServe runs the real worker loop (Serve) on a loopback listener and
// returns the address a Socket backend dials.
func startServe(t *testing.T, network, address string) string {
	t.Helper()
	lis, err := net.Listen(network, address)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); Serve(lis) }()
	t.Cleanup(func() { lis.Close(); <-done })
	if network == "unix" {
		return "unix:" + lis.Addr().String()
	}
	return lis.Addr().String()
}

// startFlakyWorker simulates a worker that is killed mid-batch: it accepts
// one connection, completes the handshake, serves serveJobs jobs correctly,
// then drops the connection on the next job frame and stops listening — so
// a re-dial fails like a dead host's would.
func startFlakyWorker(t *testing.T, serveJobs int) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		defer lis.Close()
		enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
		if err := serverHandshake(enc, dec, ""); err != nil {
			return
		}
		var session workerSession
		for served := 0; ; served++ {
			var m wireMsg
			if err := dec.Decode(&m); err != nil {
				return
			}
			if served >= serveJobs {
				return // die with the job in flight
			}
			if err := enc.Encode(session.execute(&m)); err != nil {
				return
			}
		}
	}()
	return lis.Addr().String()
}

// TestSocketKilledPeerRequeues is the fault-tolerance contract: a peer dying
// mid-job requeues the in-flight job, the surviving peer completes the
// batch, and the results are byte-identical to the in-process pool's.
func TestSocketKilledPeerRequeues(t *testing.T) {
	const n = 23
	params, err := json.Marshal(confParams{Mul: 31, Label: "conf"})
	if err != nil {
		t.Fatal(err)
	}
	// chaos/slow's 2 ms jobs keep the healthy peer from draining the queue
	// before the flaky peer takes its second job: with instant jobs it
	// could, and the test then exercised no requeue.
	want, _, err := NewInProcess().RunTask("chaos/slow", params, n, Seed(42), Workers(2))
	if err != nil {
		t.Fatal(err)
	}

	healthy := startServe(t, "tcp", "127.0.0.1:0")
	flaky := startFlakyWorker(t, 1) // serve one job, die holding the second
	backend := NewSocketWith([]string{healthy, flaky}, WithRedialWait(0))
	got, stats, err := backend.RunTask("chaos/slow", params, n, Seed(42))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeues < 1 {
		t.Fatalf("stats %+v: the killed peer's in-flight job should have been requeued", stats)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d differs after requeue:\n%s\nvs\n%s", job, want[job], got[job])
		}
	}
}

// TestSocketSurplusPeerRescuesSmallBatch: with more peers than jobs, every
// configured peer stays available — if an unreachable address claims the
// only job, a surplus healthy peer picks up the requeue and the batch
// still completes (peers are dialed lazily, so the surplus costs nothing).
func TestSocketSurplusPeerRescuesSmallBatch(t *testing.T) {
	params := []byte(`{"mul":3,"label":"rescue"}`)
	want, _, err := NewInProcess().RunTask("conformance/draw", params, 1, Seed(9), Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	healthy := startServe(t, "tcp", "127.0.0.1:0")
	dead := "127.0.0.1:1" // nothing listens here
	backend := NewSocketWith([]string{dead, healthy}, WithRedialWait(0))
	got, _, err := backend.RunTask("conformance/draw", params, 1, Seed(9))
	if err != nil {
		t.Fatalf("the healthy surplus peer should rescue the batch: %v", err)
	}
	if !bytes.Equal(got[0], want[0]) {
		t.Fatalf("job 0 differs:\n%s\nvs\n%s", got[0], want[0])
	}
}

// TestSocketAllPeersDead: when every peer fails with jobs undispatched, a
// distinct transport error surfaces instead of partial results.
func TestSocketAllPeersDead(t *testing.T) {
	flaky := startFlakyWorker(t, 0)
	backend := NewSocketWith([]string{flaky}, WithRedialWait(0))
	_, _, err := backend.RunTask("conformance/draw", []byte(`{"mul":3}`), 5, Seed(1))
	if err == nil || !strings.Contains(err.Error(), "socket backend") ||
		!strings.Contains(err.Error(), "undispatched") {
		t.Fatalf("err = %v, want a socket-backend transport error", err)
	}
}

// TestSocketRejectsLegacyWorker: a worker running the pre-versioning loop
// (ServeWorker straight off the connection, no handshake) must fail the
// batch loudly at connect time.
func TestSocketRejectsLegacyWorker(t *testing.T) {
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
				ServeWorker(conn, conn) // legacy: no handshake
			}(conn)
		}
	}()
	backend := NewSocketWith([]string{lis.Addr().String()}, WithRedialWait(0))
	_, _, err = backend.RunTask("conformance/draw", []byte(`{"mul":3}`), 3, Seed(1))
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("err = %v, want a loud handshake failure", err)
	}
}

// TestSocketNoAddresses: constructing a batch with no peers is a
// configuration error, caught before any work is attempted.
func TestSocketNoAddresses(t *testing.T) {
	if _, _, err := NewSocket().RunTask("conformance/draw", nil, 3); err == nil ||
		!strings.Contains(err.Error(), "no worker addresses") {
		t.Fatalf("err = %v, want a no-addresses error", err)
	}
}

// TestSocketUnknownTaskRemote: the coordinator knows the task but the
// remote registry does not — version/build skew that must fail loudly. The
// remote is faked by a handshake server whose reply rejects the task.
func TestSocketUnknownTaskRemote(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
		var m wireMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		enc.Encode(&wireMsg{Type: wireHello, Version: ProtocolVersion,
			Error: fmt.Sprintf("unknown task %q (registered: [])", m.Task)})
	}()
	backend := NewSocketWith([]string{lis.Addr().String()}, WithRedialWait(0), WithRedials(0))
	_, _, err = backend.RunTask("conformance/draw", []byte(`{"mul":3}`), 2, Seed(1))
	if err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("err = %v, want the remote unknown-task rejection", err)
	}
}

// TestShardShutdownKillsHungWorker pins the kill-after-timeout escalation:
// a worker that ignores the job stream's EOF is killed once the teardown
// grace expires instead of blocking the coordinator on cmd.Wait forever.
func TestShardShutdownKillsHungWorker(t *testing.T) {
	p := NewProcess(1,
		WithWorkerCommand(func() *exec.Cmd { return exec.Command("sleep", "60") }),
		WithTeardownTimeout(200*time.Millisecond))
	sh, err := p.start()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = sh.shutdown()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v, the grace escalation did not fire", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("err = %v, want a killed-after-grace report", err)
	}
}

// TestReapEscalation pins the shared teardown helper directly.
func TestReapEscalation(t *testing.T) {
	t.Run("prompt wait skips kill", func(t *testing.T) {
		killed := false
		err := reap(time.Second,
			func() error { return nil },
			func() error { killed = true; return nil })
		if err != nil || killed {
			t.Fatalf("err=%v killed=%v, want clean prompt teardown", err, killed)
		}
	})
	t.Run("hung wait is killed", func(t *testing.T) {
		unblock := make(chan struct{})
		err := reap(20*time.Millisecond,
			func() error { <-unblock; return errors.New("interrupted") },
			func() error { close(unblock); return nil })
		if err == nil || !strings.Contains(err.Error(), "killed") {
			t.Fatalf("err = %v, want killed-after-grace", err)
		}
	})
}
