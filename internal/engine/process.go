package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Process is the multi-process Backend: a coordinator that shards a task
// batch over worker subprocesses on this machine. Each batch opens a
// private Cluster on a unix socket in a fresh directory only this user can
// enter (the access control, so the token and TLS options are ignored)
// and, once dispatch starts, spawns up to one shard per job: the current
// binary re-exec'd with WorkerEnv set to the socket's address (see
// RunWorkerIfRequested). A shard joins once and is then a member like any
// other — it registers and heartbeats, and is evicted if it falls silent —
// fed by the shared remote dispatcher (lock-step unless WithWindow says
// otherwise, with journal and requeue, see RemoteOption). A dead shard is
// not respawned: its in-flight jobs are requeued for the surviving shards,
// and the batch fails on transport grounds only when every shard has
// exited with jobs left — or when a shard still running at the end of the
// batch fails to exit cleanly (a non-zero status, or killed after the
// teardown grace). Shards live for one batch, and exit when their
// coordinator's socket closes, even if the coordinator was killed.
//
// Because every job's PRNG seed is derived by the coordinator as
// JobSeed(root, job) and shipped in the job frame, the shards produce
// exactly the bytes the in-process pool would — which shard ran a job, and
// in what order, never shows in the results.
type Process struct {
	shards int
	cfg    remoteConfig
	// command starts one worker subprocess joining the coordinator at
	// addr; teardown bounds how long a shard may take to join, and then to
	// exit once its job stream ends, before it is killed (<= 0 waits
	// forever).
	command  func(addr string) *exec.Cmd
	teardown time.Duration
}

// NewProcess builds a multi-process backend with the given shard count
// (worker subprocesses); shards < 1 means GOMAXPROCS-many via the same
// default as the in-process pool.
func NewProcess(shards int, opts ...RemoteOption) *Process {
	cfg := newRemoteConfig(1, opts)
	// The socket's private directory is the access control.
	cfg.token, cfg.tlsCfg = "", nil
	return &Process{shards: shards, cfg: cfg, command: selfWorkerCommand, teardown: defaultTeardownGrace}
}

// selfWorkerCommand re-execs the current binary as a worker joining addr.
func selfWorkerCommand(addr string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		// Surfaces as a start error when the command runs.
		exe = os.Args[0]
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"="+addr)
	cmd.Stderr = os.Stderr
	return cmd
}

// Name implements Backend.
func (p *Process) Name() string { return "process" }

// RunTask implements Backend: open the batch's cluster, dispatch the batch
// over the shards that join it (see runRemote), then reap them. Transport
// failures surface as distinct "process backend" errors.
func (p *Process) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	dir, err := os.MkdirTemp("", "chanalloc-shards-")
	if err != nil {
		return nil, Stats{}, fmt.Errorf("engine: process backend: %w", err)
	}
	defer os.RemoveAll(dir)
	lis, err := net.Listen("unix", filepath.Join(dir, "sock"))
	if err != nil {
		return nil, Stats{}, fmt.Errorf("engine: process backend: %w", err)
	}
	shards := p.shards
	if shards < 1 {
		shards = defaultWorkers()
	}
	s := &shardSet{Cluster: newCluster(lis, nil), count: min(shards, n), command: p.command, exited: make(chan struct{})}
	s.cfg, s.exhausted = p.cfg, s.exited
	s.start()
	results, stats, err := runRemote(p.Name(), &s.cfg, s, &s.trouble, nil, task, params, n, opts)
	if exitErr := s.finish(p.teardown); err == nil && exitErr != nil {
		return nil, stats, fmt.Errorf("engine: process backend %w", exitErr)
	}
	return results, stats, err
}

// shardSet is one Process batch's peer source: its private cluster, whose
// feed hands the dispatcher each shard that joins, and the shards,
// spawned when dispatch starts — so a batch refused before dispatch, or
// recovered whole from its journal, spawns none.
type shardSet struct {
	*Cluster
	count   int
	command func(addr string) *exec.Cmd

	shards []*shard
	left   atomic.Int64  // shards that have not exited
	exited chan struct{} // closed when the last shard exits
}

// shard is one worker subprocess of a batch.
type shard struct {
	proc *os.Process   // nil if it failed to start
	done chan struct{} // closed once it has exited, with err set
	err  error
}

// feed spawns the batch's shards, then runs the cluster's feed, which
// returns early once every shard has exited: nothing can join any more.
func (s *shardSet) feed(b *batch, arrivals chan<- *peer) {
	s.left.Store(int64(s.count))
	for i := range s.count {
		sh := &shard{done: make(chan struct{})}
		s.shards = append(s.shards, sh)
		cmd := s.command(s.Addr())
		if err := cmd.Start(); err != nil {
			s.exit(i, sh, fmt.Errorf("starting worker: %w", err))
			continue
		}
		sh.proc = cmd.Process
		go func() { s.exit(i, sh, cmd.Wait()) }()
	}
	s.Cluster.feed(b, arrivals)
}

// exit records how shard i ended; mid-batch, that is the batch's latest
// trouble.
func (s *shardSet) exit(i int, sh *shard, err error) {
	sh.err = err
	close(sh.done)
	if err == nil {
		err = errors.New("worker exited")
	}
	s.trouble.note(fmt.Errorf("shard %d: %w", i, err))
	if s.left.Add(-1) == 0 {
		close(s.exited)
	}
}

// finish ends the batch's shards and closes its cluster. It first waits,
// for up to the grace, until every running shard has joined — one still
// starting would find the socket gone and fail — then half-closes each
// connection: a shard reads the end of its job stream, ends its session
// and exits, closing its side first, so none of its frames is left unread
// when the cluster closes (closing a socket over unread bytes resets the
// peer's read). Each shard is reaped, and killed if it has not exited
// within the grace. The first failed exit, in shard order, of a shard
// still running when the batch ended is returned; the exits of shards
// that died mid-batch, whose jobs were requeued, are only logged.
func (s *shardSet) finish(grace time.Duration) error {
	running := make([]bool, len(s.shards))
	for i, sh := range s.shards {
		select {
		case <-sh.done:
		default:
			running[i] = true
		}
	}
	for deadline := time.Now().Add(grace); s.reg.Len() < int(s.left.Load()) &&
		(grace <= 0 || time.Now().Before(deadline)); {
		time.Sleep(time.Millisecond)
	}
	s.hangUp()
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if sh.proc == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := reap(grace, func() error { <-sh.done; return sh.err }, sh.proc.Kill)
			if err == nil {
				return
			}
			err = fmt.Errorf("shard %d: worker exit: %w", i, err)
			if running[i] {
				errs[i] = err
				return
			}
			fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		}()
	}
	wg.Wait()
	s.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
