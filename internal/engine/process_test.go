package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ndjson"
)

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

// TestRemoteRequeueOnPeerDeath pins the requeue contract of the Process
// backend's shards: a shard that dies with jobs in its window has them
// requeued to the survivors, and the batch fans in byte-identical to the
// in-process pool. Only when every shard is gone does the batch fail,
// promptly, with the backend's transport error.
func TestRemoteRequeueOnPeerDeath(t *testing.T) {
	const n, root = 24, 17
	for _, tc := range []struct {
		name    string
		always  bool   // every shard dies on dieJob
		wantErr string // "" means the survivors complete the batch
	}{
		{"spawn/one shard dies", false, ""},
		{"spawn/every shard dies", true, "process backend"},
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
			got, stats, err := NewProcess(2).RunTask("chaos/die", params, n, Seed(root))
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
		// until its socket closes at batch end. The first case's grace
		// leaves room for a slow exit (a -race binary's, say).
		{"non-zero exit", `"$0"; exit 3`, "exit status 3", defaultTeardownGrace},
		{"hung after the job stream closes", `"$0"; exec sleep 60`, "killed", 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcess(2)
			p.command = func(addr string) *exec.Cmd {
				self := selfWorkerCommand(addr)
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

// TestProcessLeavesNothing: when RunTask returns, the batch's socket
// directory is gone and every shard it spawned has exited and been reaped
// — after a clean batch, after job errors, and after every shard died.
func TestProcessLeavesNothing(t *testing.T) {
	die, err := json.Marshal(dieParams{Always: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, task string
		params     []byte
		wantErr    string // "" means the batch succeeds
	}{
		{"success", "conformance/draw", []byte(`{"mul":3}`), ""},
		{"job error", "conformance/fail", []byte(`{}`), "engine: job 3: job 3 boom"},
		{"every shard dies", "chaos/die", die, "undispatched"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			var shards []*exec.Cmd
			p := NewProcess(2)
			p.command = func(addr string) *exec.Cmd {
				cmd := selfWorkerCommand(addr)
				shards = append(shards, cmd)
				return cmd
			}
			_, _, err := p.RunTask(tc.task, tc.params, 12, Seed(1))
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
				t.Fatalf("temporary directory holds %v after the batch (%v)", left, err)
			}
			if len(shards) != 2 {
				t.Fatalf("%d shards spawned, want 2", len(shards))
			}
			for i, cmd := range shards {
				if cmd.ProcessState == nil {
					t.Fatalf("shard %d was not reaped", i)
				}
			}
		})
	}
}

// TestShardJoinsOnce: a shard makes one join attempt and never redials. It
// exits 0 once the coordinator that admitted it hangs up, and non-zero when
// its register is refused or nothing listens at its address.
func TestShardJoinsOnce(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "sock")
	// shard runs this test binary as a shard joining sock; wait returns its
	// exit, killing it if it has not exited within 10 s.
	shard := func(t *testing.T) (wait func() error, stderr *bytes.Buffer) {
		cmd := selfWorkerCommand("unix:" + sock)
		stderr = &bytes.Buffer{}
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return func() error {
			timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
			defer timer.Stop()
			return cmd.Wait()
		}, stderr
	}
	// coordinator listens at sock and admits one connection: answer reads
	// its register frame and replies, then the coordinator hangs up and
	// closes done.
	coordinator := func(t *testing.T, answer func(enc *json.Encoder, rd *ndjson.Reader) error) (lis *net.UnixListener, done <-chan struct{}) {
		l, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		admitted := make(chan struct{})
		go func() {
			defer close(admitted)
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if err := answer(json.NewEncoder(conn), ndjson.NewReader(conn, maxFrameBytes)); err != nil {
				t.Error(err)
			}
		}()
		return l.(*net.UnixListener), admitted
	}

	t.Run("coordinator hangs up", func(t *testing.T) {
		lis, done := coordinator(t, func(enc *json.Encoder, rd *ndjson.Reader) error {
			_, err := acceptRegistration(enc, rd, "", time.Hour)
			return err
		})
		wait, stderr := shard(t)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("the shard never joined: %v (stderr %q)", wait(), stderr)
		}
		lis.SetDeadline(time.Now().Add(time.Second))
		for {
			conn, err := lis.Accept()
			if err != nil {
				break // the deadline: no second connection
			}
			conn.Close()
			t.Error("the shard dialed a second time")
		}
		if err := wait(); err != nil {
			t.Fatalf("shard exit: %v, want 0 (stderr %q)", err, stderr)
		}
	})
	t.Run("register rejected", func(t *testing.T) {
		_, done := coordinator(t, func(enc *json.Encoder, rd *ndjson.Reader) error {
			var m wireMsg
			if err := rd.Decode(&m); err != nil {
				return err
			}
			return enc.Encode(&wireMsg{Type: wireHello, Version: ProtocolVersion + 1})
		})
		wait, stderr := shard(t)
		if err := wait(); err == nil || !strings.Contains(stderr.String(), "protocol version mismatch") {
			t.Fatalf("shard exit: %v (stderr %q), want a failed exit over the version", err, stderr)
		}
		<-done
	})
	t.Run("nothing listening", func(t *testing.T) {
		os.Remove(sock)
		wait, stderr := shard(t)
		if err := wait(); err == nil || !strings.Contains(stderr.String(), "engine worker:") {
			t.Fatalf("shard exit: %v (stderr %q), want a failed exit", err, stderr)
		}
	})
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
