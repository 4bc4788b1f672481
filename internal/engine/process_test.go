package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
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

// TestRemoteRequeueOnPeerDeath pins the requeue contract of the spawn
// source: a shard that dies with jobs in its window has them requeued to
// the survivors, and the batch fans in byte-identical to the in-process
// pool. Only when every shard is gone does the batch fail, with the
// backend's transport error.
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
