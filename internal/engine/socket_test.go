package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
)

// quickSocket is NewSocketWith with the given redial budget and no pause
// before a redial.
func quickSocket(addrs []string, redials int, opts ...RemoteOption) *Socket {
	s := NewSocketWith(addrs, opts...)
	s.redials, s.redialWait = redials, 0
	return s
}

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
	backend := quickSocket([]string{healthy, flaky}, 1)
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

// dieParams parameterises chaos/die: the worker process that runs job
// dieJob exits mid-window — the first one to claim the marker file in Dir,
// or every one when Always is set. Only spawned shards die (WorkerEnv is
// set in them alone), so the in-process reference run is unaffected.
type dieParams struct {
	Dir    string `json:"dir"`
	Always bool   `json:"always"`
}

const dieJob = 5

func init() {
	MustRegisterTask("chaos/die", func(p dieParams, job int, rng *des.RNG) (any, error) {
		if job == dieJob && os.Getenv(WorkerEnv) != "" {
			if p.Always {
				os.Exit(3)
			}
			if f, err := os.OpenFile(filepath.Join(p.Dir, "died"), os.O_CREATE|os.O_EXCL, 0o600); err == nil {
				f.Close()
				os.Exit(3)
			}
		}
		// 2 ms jobs keep every peer's window busy when the death lands.
		time.Sleep(2 * time.Millisecond)
		return confResult{Job: job, Acc: rng.Uint64()}, nil
	})
}

// TestRemoteRequeueOnPeerDeath pins the requeue contract of the spawn and
// dial sources: a shard or peer that dies with jobs in its window has them
// requeued to the survivors, and the batch fans in byte-identical to the
// in-process pool. Only when every source is exhausted does the batch fail,
// with the backend's transport error.
func TestRemoteRequeueOnPeerDeath(t *testing.T) {
	const n, root = 24, 17
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T) Backend
		always  bool   // every shard dies on dieJob
		wantErr string // "" means the survivors complete the batch
	}{
		{"spawn/one shard dies", func(*testing.T) Backend { return NewProcess(2) }, false, ""},
		{"spawn/every shard dies", func(*testing.T) Backend { return NewProcess(2) }, true, "process backend"},
		{"dial/one peer dies", func(t *testing.T) Backend {
			return quickSocket([]string{startServe(t, "tcp", "127.0.0.1:0"), startFlakyWorker(t, 1)}, 1)
		}, false, ""},
		{"dial/every peer dies", func(t *testing.T) Backend {
			return quickSocket([]string{startFlakyWorker(t, 1), startFlakyWorker(t, 2)}, 1)
		}, false, "socket backend"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params, err := json.Marshal(dieParams{Dir: t.TempDir(), Always: tc.always})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := NewInProcess().RunTask("chaos/die", params, n, Seed(root))
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := tc.backend(t).RunTask("chaos/die", params, n, Seed(root))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) ||
					!strings.Contains(err.Error(), "undispatched") {
					t.Fatalf("err = %v, want a %s transport error", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if stats.Requeues < 1 {
				t.Fatalf("stats %+v: the dead peer's window should have been requeued", stats)
			}
			for job := range want {
				if !bytes.Equal(want[job], got[job]) {
					t.Fatalf("job %d differs after requeue:\n%s\nvs\n%s", job, want[job], got[job])
				}
			}
		})
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
	backend := quickSocket([]string{dead, healthy}, 1)
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
	backend := quickSocket([]string{flaky}, 1)
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
	backend := quickSocket([]string{lis.Addr().String()}, 1)
	_, _, err = backend.RunTask("conformance/draw", []byte(`{"mul":3}`), 3, Seed(1))
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("err = %v, want a loud handshake failure", err)
	}
}

// TestServeClosesSilentHandshake: a peer that connects, sends half a hello
// line and goes quiet is closed by the worker once handshakeGrace passes,
// instead of holding a goroutine and a descriptor until Serve stops.
func TestServeClosesSilentHandshake(t *testing.T) {
	// Registered before startServe so it runs after Serve has returned and
	// every connection goroutine that read the grace has finished.
	grace := handshakeGrace
	t.Cleanup(func() { handshakeGrace = grace })
	handshakeGrace = 100 * time.Millisecond
	addr := startServe(t, "tcp", "127.0.0.1:0")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"hello","version":`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("worker still holds a connection whose hello never completed")
	}
	if err == nil {
		t.Fatalf("worker wrote %d byte(s) to a peer that never finished its hello", n)
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
	backend := quickSocket([]string{lis.Addr().String()}, 0)
	_, _, err = backend.RunTask("conformance/draw", []byte(`{"mul":3}`), 2, Seed(1))
	if err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("err = %v, want the remote unknown-task rejection", err)
	}
}

// TestShardShutdownKillsHungWorker pins the kill-after-timeout escalation:
// a worker that ignores the job stream's EOF is killed once the teardown
// grace expires instead of blocking the coordinator on cmd.Wait forever.
func TestShardShutdownKillsHungWorker(t *testing.T) {
	p := NewProcess(1)
	p.command = func() *exec.Cmd { return exec.Command("sleep", "60") }
	p.teardown = 200 * time.Millisecond
	l, err := p.spawn(0)
	if err != nil {
		t.Fatal(err)
	}
	sh := (&linkSource{}).connect(newPeer(""), l, &troubleLog{})
	start := time.Now()
	err = sh.shutdown(p.teardown)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v, the grace escalation did not fire", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("err = %v, want a killed-after-grace report", err)
	}
}

// TestProcessShardExitFailsBatch: a shard that answers every job but then
// fails to exit cleanly — a non-zero status, or hung until the teardown
// grace kills it — fails the batch with a process-backend error, although
// every result arrived. (Shards that die mid-batch are covered by
// TestRemoteRequeueOnPeerDeath: their jobs are requeued, and their exit
// does not count.)
func TestProcessShardExitFailsBatch(t *testing.T) {
	for _, tc := range []struct {
		name, script, want string
		grace              time.Duration
	}{
		// "$0" is the worker: this test binary with WorkerEnv set, serving
		// until its stdin closes at batch end. The first case's grace
		// leaves room for a slow exit (a -race binary's, say).
		{"non-zero exit", `"$0"; exit 3`, "exit status 3", defaultTeardownGrace},
		{"hung after the job stream closes", `"$0"; exec sleep 60`, "killed", 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcess(2)
			p.command = func() *exec.Cmd {
				self := selfWorkerCommand()
				cmd := exec.Command("sh", "-c", tc.script, self.Path)
				cmd.Env, cmd.Stderr = self.Env, self.Stderr
				return cmd
			}
			p.teardown = tc.grace
			_, _, err := p.RunTask("conformance/draw", []byte(`{"mul":3}`), 6, Seed(1))
			if err == nil || !strings.Contains(err.Error(), "process backend shard") ||
				!strings.Contains(err.Error(), "worker exit") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a process backend worker-exit error with %q", err, tc.want)
			}
		})
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
