package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// Process is the multi-process Backend: a coordinator that shards a task
// batch over worker subprocesses. Each shard is the current binary
// re-exec'd with WorkerEnv set (see RunWorkerIfRequested), speaking
// newline-delimited JSON over its stdio. Because every job's PRNG seed is
// derived by the coordinator as JobSeed(root, job) and shipped in the job
// frame, the shards produce exactly the bytes the in-process pool would —
// which shard ran a job, and in what order, never shows in the results.
type Process struct {
	shards   int
	command  func() *exec.Cmd
	teardown time.Duration
}

// ProcessOption configures a Process backend.
type ProcessOption func(*Process)

// WithWorkerCommand overrides how worker subprocesses are started (the
// default re-execs the current binary with WorkerEnv set). The command's
// environment must make RunWorkerIfRequested trigger in the child, and the
// child must have the batch's tasks registered.
func WithWorkerCommand(command func() *exec.Cmd) ProcessOption {
	return func(p *Process) { p.command = command }
}

// WithTeardownTimeout bounds how long shutdown waits for a worker to exit
// after its job stream closes before killing it (d <= 0 waits forever;
// default 5s). A worker that hangs instead of exiting must not block the
// coordinator indefinitely.
func WithTeardownTimeout(d time.Duration) ProcessOption {
	return func(p *Process) { p.teardown = d }
}

// NewProcess builds a multi-process backend with the given shard count
// (worker subprocesses); shards < 1 means GOMAXPROCS-many via the same
// default as the in-process pool.
func NewProcess(shards int, opts ...ProcessOption) *Process {
	p := &Process{shards: shards, command: selfWorkerCommand, teardown: defaultTeardownGrace}
	for _, opt := range opts {
		opt(p)
	}
	return p
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

// shard is one live worker subprocess with JSON framing over its stdio.
type shard struct {
	lockstep
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	teardown time.Duration
}

// lockstep is the job framing of one lock-step worker connection — a
// shard's stdio pair or a socket peer: send a job frame, await its result.
type lockstep struct {
	enc *json.Encoder
	dec *json.Decoder
	// paramsSent records that the batch's params rode on an earlier job
	// frame of this connection; a redial or respawn is a new connection,
	// so its first frame carries them again.
	paramsSent bool
}

// start spawns one worker subprocess.
func (p *Process) start() (*shard, error) {
	cmd := p.command()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("opening worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("opening worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	return &shard{
		lockstep: lockstep{enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)},
		cmd:      cmd,
		stdin:    stdin,
		teardown: p.teardown,
	}, nil
}

// runJob executes one job on the connection: send the frame, await the
// matching reply. params ride only on the connection's first job frame.
func (l *lockstep) runJob(m *wireMsg, params json.RawMessage) (*wireMsg, error) {
	if !l.paramsSent {
		m.Params = params
	}
	if err := l.enc.Encode(m); err != nil {
		return nil, fmt.Errorf("sending job %d: %w", m.Job, err)
	}
	if !l.paramsSent {
		l.paramsSent = true
		mParamsFrames.Inc()
	}
	var reply wireMsg
	if err := l.dec.Decode(&reply); err != nil {
		return nil, fmt.Errorf("awaiting result of job %d: %w", m.Job, err)
	}
	if reply.Type != wireResult || reply.Job != m.Job {
		return nil, fmt.Errorf("got frame %q for job %d, want result of job %d",
			reply.Type, reply.Job, m.Job)
	}
	return &reply, nil
}

// shutdown closes the job stream and reaps the subprocess. A healthy worker
// exits on the stream's EOF; one that hangs — wedged in a task, or a peer
// that stopped reading after a transport error — is killed once the
// teardown grace expires, so cmd.Wait can never block the coordinator
// forever (the escalation is shared with the Socket backend's peer
// teardown, see reap).
func (s *shard) shutdown() error {
	s.stdin.Close()
	return reap(s.teardown, s.cmd.Wait, func() error { return s.cmd.Process.Kill() })
}

// RunTask implements Backend: fan the batch's jobs out over the worker
// subprocesses (dynamic dispatch off a shared counter, exactly like the
// in-process pool) and fan the JSON results in by job index. Job errors
// surface with Map's semantics — every job still runs, then the
// lowest-indexed failure is returned with nil results, worded identically
// to the in-process backend. Transport failures (a worker dying, a broken
// pipe) surface as distinct "process backend" errors instead.
func (p *Process) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := checkBatch(task, params); err != nil {
		return nil, Stats{}, err
	}
	shards := p.shards
	if shards < 1 {
		shards = defaultWorkers()
	}
	if shards > n {
		shards = n
	}
	stats := Stats{Workers: shards, Jobs: n}
	if n < 0 {
		return nil, stats, fmt.Errorf("engine: negative job count %d", n)
	}
	if n == 0 {
		stats.Workers = 0
		return []json.RawMessage{}, stats, nil
	}

	start := time.Now()
	blob := paramsBlob(params)
	results := make([]json.RawMessage, n)
	errs := make([]string, n)
	failed := make([]bool, n)
	stats.JobTimes = make([]time.Duration, n)
	infraErrs := make([]error, shards)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh, err := p.start()
			if err != nil {
				infraErrs[w] = err
				return
			}
			for {
				job := int(next.Add(1) - 1)
				if job >= n {
					break
				}
				jobStart := time.Now()
				reply, err := sh.runJob(&wireMsg{
					Type: wireJob,
					Job:  job,
					Task: task,
					Seed: JobSeed(cfg.seed, job),
				}, blob)
				stats.JobTimes[job] = time.Since(jobStart)
				if err != nil {
					infraErrs[w] = err
					sh.shutdown()
					return
				}
				if reply.Error != "" {
					errs[job] = reply.Error
					failed[job] = true
					continue
				}
				results[job] = reply.Value
			}
			if err := sh.shutdown(); err != nil {
				infraErrs[w] = fmt.Errorf("worker exit: %w", err)
			}
		}(w)
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	// Transport failures first: a dead shard means its in-flight job never
	// ran, so the batch did NOT honour the every-job-runs contract and the
	// crash must not be masked by an ordinary job error elsewhere.
	for w, err := range infraErrs {
		if err != nil {
			return nil, stats, fmt.Errorf("engine: process backend shard %d: %w", w, err)
		}
	}
	// A dead shard's unclaimed jobs stay unexecuted; surfaceJobErrors makes
	// sure none slipped through silently (every job must have a result or a
	// recorded error).
	if err := surfaceJobErrors("process", results, errs, failed); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}
