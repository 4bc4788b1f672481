package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"github.com/multiradio/chanalloc/internal/ndjson"
)

// Process is the multi-process Backend: a coordinator that shards a task
// batch over worker subprocesses. Each shard is the current binary
// re-exec'd with WorkerEnv set (see RunWorkerIfRequested), speaking
// newline-delimited JSON over its stdio — no handshake, since parent and
// child are the same program. Shards are spawned per batch, each when it
// takes its first job, fed by the shared remote dispatcher (lock-step
// unless WithWindow says otherwise, with journal and requeue, see
// RemoteOption) and reaped when the batch ends. A dead shard is not
// respawned: its in-flight jobs are requeued for the surviving shards, and
// the batch fails on transport grounds only when every shard has died with
// jobs left — or when a shard still serving at the end of the batch fails
// to exit cleanly (a non-zero status, or killed after the teardown grace).
//
// Because every job's PRNG seed is derived by the coordinator as
// JobSeed(root, job) and shipped in the job frame, the shards produce
// exactly the bytes the in-process pool would — which shard ran a job, and
// in what order, never shows in the results.
type Process struct {
	shards int
	cfg    remoteConfig
	// command starts one worker subprocess; teardown bounds how long a
	// shard may take to exit after its job stream closes before it is
	// killed (<= 0 waits forever).
	command  func() *exec.Cmd
	teardown time.Duration
}

// NewProcess builds a multi-process backend with the given shard count
// (worker subprocesses); shards < 1 means GOMAXPROCS-many via the same
// default as the in-process pool.
func NewProcess(shards int, opts ...RemoteOption) *Process {
	return &Process{shards: shards, cfg: newRemoteConfig(1, opts), command: selfWorkerCommand, teardown: defaultTeardownGrace}
}

// selfWorkerCommand re-execs the current binary as a worker.
func selfWorkerCommand() *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		// Surfaces as a spawn error when the command runs.
		exe = os.Args[0]
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// Name implements Backend.
func (p *Process) Name() string { return "process" }

// spawn starts one worker subprocess and frames its stdio.
func (p *Process) spawn(shard int) (*link, error) {
	cmd := p.command()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shard %d: opening worker stdin: %w", shard, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shard %d: opening worker stdout: %w", shard, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard %d: starting worker: %w", shard, err)
	}
	return &link{
		remote:     fmt.Sprintf("shard %d", shard),
		enc:        json.NewEncoder(stdin),
		rd:         ndjson.NewReader(stdout, maxFrameBytes),
		closeWrite: stdin.Close,
		sever:      cmd.Process.Kill,
		wait:       cmd.Wait,
	}, nil
}

// RunTask implements Backend: spawn up to one shard per job and dispatch
// the batch over them (see runRemote). Transport failures surface as
// distinct "process backend" errors.
func (p *Process) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	shards := p.shards
	if shards < 1 {
		shards = defaultWorkers()
	}
	shards = min(shards, n)
	src := &linkSource{slots: shards, open: p.spawn, grace: p.teardown, exitFatal: true}
	results, stats, err := runRemote(p.Name(), &p.cfg, src, &troubleLog{}, nil, task, params, n, opts)
	if err == nil && src.exitErr != nil {
		return nil, stats, fmt.Errorf("engine: process backend %w", src.exitErr)
	}
	return results, stats, err
}
