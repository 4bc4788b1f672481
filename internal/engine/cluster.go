package engine

import (
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiradio/chanalloc/internal/cluster"
	"github.com/multiradio/chanalloc/internal/journal"
	"github.com/multiradio/chanalloc/internal/obs"
)

// Cluster is the membership-based Backend: instead of the coordinator
// dialing a static address list (the Socket backend), workers dial IN and
// register — so workers behind NAT, started late, or restarted mid-sweep
// can all join. The coordinator listens on one address, answers each
// connection's register handshake (protocol version, task registry and
// optional auth token, see registerHandshake), and tracks the membership in
// an internal/cluster registry: every frame a worker sends refreshes its
// liveness clock, and a worker silent past the eviction deadline is dropped
// with its in-flight jobs requeued for the survivors — the same requeue
// semantics the Socket backend applies to dead peers.
//
// Dispatch is streaming and pipelined: each peer has a configurable window
// of outstanding jobs (WithClusterWindow) instead of the Socket backend's
// lock-step send/receive, so a batch of small jobs pays one round-trip per
// WINDOW, not one per job. Results carry their job index, so they may
// complete out of order within the window; fan-in stays index-ordered and
// — because every job frame carries JobSeed(root, job) — byte-identical to
// the in-process pool for any window size, join order, or mid-batch
// join/leave (pinned by the backend-conformance suite).
//
// A batch dispatched with no members waits WithJoinWait for the first
// capable worker; a worker that joins after dispatch starts receives jobs
// immediately. The backend only fails on transport grounds when jobs are
// still unfinished and no capable worker has been connected for the whole
// join-wait.
type Cluster struct {
	lis       net.Listener
	addr      string
	window    int
	token     string
	tlsCfg    *tls.Config
	heartbeat time.Duration
	evict     time.Duration
	joinWait  time.Duration
	teardown  time.Duration

	journalPath  string
	journalEvery int
	resume       bool

	reg     *cluster.Registry
	mu      sync.Mutex // guards peers AND conns
	peers   map[int64]*clusterPeer
	conns   map[net.Conn]struct{} // every live connection, registered or not
	batchMu sync.Mutex            // serialises RunTask: peers carry one batch at a time

	// lastErr remembers the most recent peer failure for transport-error
	// reporting.
	errMu   sync.Mutex
	lastErr error

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // accept loop, monitor, peer readers
}

// ClusterOption configures a Cluster backend.
type ClusterOption func(*Cluster)

// WithClusterWindow sets the per-peer window of outstanding jobs (default
// 8). Window 1 degenerates to the Socket backend's lock-step dispatch;
// larger windows pipeline sends so small-job batches stop paying one
// round-trip per job. The window never affects results, only wall clock.
func WithClusterWindow(n int) ClusterOption {
	return func(c *Cluster) {
		if n > 0 {
			c.window = n
		}
	}
}

// WithClusterAuthToken sets the shared secret every register handshake must
// present; a mismatch — wrong token, or only one side configured — rejects
// the join loudly, like version skew (default: no token).
func WithClusterAuthToken(token string) ClusterOption {
	return func(c *Cluster) { c.token = token }
}

// WithClusterTLS makes the coordinator answer every joining connection with
// a TLS server handshake (see ServerTLSConfig) before the register
// exchange, so only workers dialing with the matching WithJoinTLS /
// -tls-ca get as far as the protocol. Frame bytes are unchanged — TLS sits
// under the NDJSON framing (default: plain connections).
func WithClusterTLS(cfg *tls.Config) ClusterOption {
	return func(c *Cluster) { c.tlsCfg = cfg }
}

// WithClusterJournal checkpoints batch progress to an append-only NDJSON
// file at path (see internal/journal): the batch's identity on the first
// line, then one entry per completed job carrying the exact result bytes.
// Without WithClusterResume the file is truncated at each RunTask; journal
// write failures are logged, never fatal — the checkpoint is a safety net,
// not a dependency (default: no journal).
func WithClusterJournal(path string) ClusterOption {
	return func(c *Cluster) { c.journalPath = path }
}

// WithClusterResume makes RunTask recover an existing journal first: jobs
// with a checkpointed result are filled in from the journal (counted in
// Stats.Resumed, never re-executed) and only the remainder is dispatched.
// The journal's batch identity — task, params hash, root seed, job count —
// must match exactly or the batch fails loudly; a missing file degenerates
// to a fresh journal. A torn final line (the previous coordinator died
// mid-append) is truncated silently.
func WithClusterResume(on bool) ClusterOption {
	return func(c *Cluster) { c.resume = on }
}

// WithClusterJournalFsync sets the journal's durability cadence: fsync
// after every n appended entries (default 1 — every entry; larger values
// trade a crash losing up to n-1 checkpoints for fewer disk stalls).
func WithClusterJournalFsync(n int) ClusterOption {
	return func(c *Cluster) {
		if n > 0 {
			c.journalEvery = n
		}
	}
}

// WithClusterHeartbeat sets the heartbeat cadence advertised to joining
// workers (default 2s; floored at 1ms — the cadence crosses the wire in
// whole milliseconds, and a sub-ms value would advertise as "none" while
// eviction still fired at 4× sub-ms, evicting every healthy worker). The
// eviction deadline defaults to 4× this value unless WithClusterEvictAfter
// overrides it.
func WithClusterHeartbeat(d time.Duration) ClusterOption {
	return func(c *Cluster) {
		if d > 0 {
			c.heartbeat = d
		}
	}
}

// WithClusterEvictAfter sets how long a worker may stay silent — no
// heartbeat, no result — before it is evicted and its in-flight jobs are
// requeued (default 4× the heartbeat cadence).
func WithClusterEvictAfter(d time.Duration) ClusterOption {
	return func(c *Cluster) {
		if d > 0 {
			c.evict = d
		}
	}
}

// WithJoinWait bounds the batch's accumulated time with NO capable worker
// connected (default 30s). The clock runs only while the membership (for
// the batch's task) is empty, pauses while a worker is serving, and resets
// when a job completes — so a worker stuck in a join/crash loop without
// ever finishing a job burns the budget instead of renewing it.
func WithJoinWait(d time.Duration) ClusterOption {
	return func(c *Cluster) {
		if d > 0 {
			c.joinWait = d
		}
	}
}

// WithClusterTeardown bounds Close's wait for per-connection goroutines
// after their transports are severed (default 5s, the shared teardown
// grace).
func WithClusterTeardown(d time.Duration) ClusterOption {
	return func(c *Cluster) { c.teardown = d }
}

// NewCluster listens on addr — "host:port", ":port" (TCP), "unix:/path" or
// a bare filesystem path (unix socket) — and returns a membership Backend
// accepting worker joins (JoinAndServe, engineworker -join) from now on.
// Call Close when done with the backend, not per batch: the membership
// outlives individual RunTask calls.
func NewCluster(addr string, opts ...ClusterOption) (*Cluster, error) {
	lis, err := listenWorkerAddr(addr)
	if err != nil {
		return nil, err
	}
	return NewClusterOn(lis, opts...), nil
}

// NewClusterOn is NewCluster over an existing listener (tests and callers
// that picked their own port).
func NewClusterOn(lis net.Listener, opts ...ClusterOption) *Cluster {
	c := &Cluster{
		lis:          lis,
		window:       8,
		heartbeat:    2 * time.Second,
		joinWait:     30 * time.Second,
		teardown:     defaultTeardownGrace,
		journalEvery: 1,
		reg:          cluster.NewRegistry(),
		peers:        map[int64]*clusterPeer{},
		conns:        map[net.Conn]struct{}{},
		closed:       make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.tlsCfg != nil {
		// The TLS listener wraps accepted conns; Addr() still reports the
		// inner listener's address, so the join address is unchanged.
		c.lis = tls.NewListener(lis, c.tlsCfg)
	}
	if c.heartbeat < time.Millisecond {
		c.heartbeat = time.Millisecond
	}
	if c.evict <= 0 {
		c.evict = 4 * c.heartbeat
	}
	if addr := lis.Addr(); addr.Network() == "unix" {
		c.addr = "unix:" + addr.String()
	} else {
		c.addr = addr.String()
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.runMonitor()
	return c
}

// Name implements Backend.
func (c *Cluster) Name() string { return "cluster" }

// Addr returns the address workers join, formatted for JoinAndServe /
// `engineworker -join` ("host:port" or "unix:/path").
func (c *Cluster) Addr() string { return c.addr }

// Members reports the current membership snapshot (diagnostics).
func (c *Cluster) Members() []cluster.Member { return c.reg.Members() }

// Close tears the coordinator down: stop accepting joins, sever every live
// connection — registered members AND connections still mid-registration,
// which the registry cannot reach — and wait (bounded by the teardown
// grace) for the per-connection goroutines to drain. Workers are not
// notified beyond the close — their join loops will redial until a
// coordinator returns.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.lis.Close()
		c.closeConns()
	})
	return reap(c.teardown, func() error { c.wg.Wait(); return nil },
		func() error { c.closeConns(); return nil })
}

// closeConns severs every live connection (best effort).
func (c *Cluster) closeConns() {
	c.mu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// noteErr remembers a peer failure for transport-error reporting.
func (c *Cluster) noteErr(err error) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	c.lastErr = err
}

// registerGrace bounds how long a fresh connection may sit silent before
// sending its register frame: a port scan, health-check probe or half-open
// client must not pin an admit goroutine (and, at teardown, Close) forever.
const registerGrace = 30 * time.Second

// acceptLoop admits joining workers until the listener closes, riding out
// transient accept failures via the shared acceptConns helper.
func (c *Cluster) acceptLoop() {
	defer c.wg.Done()
	err := acceptConns(c.lis, "engine cluster", func(conn net.Conn) {
		c.mu.Lock()
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.admit(conn)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine cluster: %v\n", err)
	}
}

// admit runs one connection's register handshake and, on success, turns it
// into a registered peer whose reader routes heartbeats and results until
// the transport ends.
func (c *Cluster) admit(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	conn.SetReadDeadline(time.Now().Add(registerGrace))
	tasks, err := acceptRegistration(enc, dec, c.token, c.heartbeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine cluster: %s: %v\n", remoteName(conn), err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	p := &clusterPeer{
		conn:     conn,
		enc:      enc,
		remote:   remoteName(conn),
		inflight: map[int]time.Time{},
	}
	// Register and publish atomically under c.mu: a dispatcher woken by the
	// registry change must find the peer in c.peers on its next lookup, or
	// it would mark the member seen and skip it forever.
	c.mu.Lock()
	p.id = c.reg.Add(p.remote, tasks, func() error { return conn.Close() })
	c.peers[p.id] = p
	c.mu.Unlock()
	mPeers.Inc()

	// The reader is the peer's whole lifetime: when it returns — transport
	// failure, eviction's conn.Close, coordinator teardown — the peer
	// leaves, requeueing whatever it held.
	err = p.read(dec, c.reg)
	if err != nil {
		c.noteErr(fmt.Errorf("%s: %w", p.remote, err))
	}
	c.mu.Lock()
	delete(c.peers, p.id)
	c.mu.Unlock()
	c.reg.Remove(p.id)
	mPeers.Dec()
	conn.Close()
	p.leave()
}

// runMonitor evicts silent members until the coordinator closes.
func (c *Cluster) runMonitor() {
	defer c.wg.Done()
	mon := &cluster.Monitor{
		Registry:   c.reg,
		EvictAfter: c.evict,
		Tick:       c.heartbeat / 2,
		OnEvict: func(m cluster.Member) {
			mEvictions.Inc()
			obs.Emit("evict", m.Remote, m.ID, 0, 0)
			c.noteErr(fmt.Errorf("%s: evicted after %v of silence", m.Remote, c.evict))
		},
	}
	mon.Run(c.closed)
}

// clusterPeer is one registered worker connection.
type clusterPeer struct {
	id     int64
	conn   net.Conn
	remote string

	sendMu sync.Mutex // one frame at a time on the wire
	enc    *json.Encoder

	mu       sync.Mutex
	inflight map[int]time.Time // job -> dispatch time, owned by the active batch
	batch    *clusterBatch     // nil between batches
	window   chan struct{}     // per-batch counting semaphore of outstanding jobs
	gone     bool
	goneCh   chan struct{} // created per batch attachment; closed on leave
}

// send writes one frame (thread-safe: the batch sender and the heartbeat
// path never interleave partial frames).
func (p *clusterPeer) send(m *wireMsg) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.enc.Encode(m)
}

// read routes the peer's incoming frames for the connection's lifetime:
// heartbeats refresh the liveness clock, results go to the active batch.
// Any decode error ends the peer.
func (p *clusterPeer) read(dec *json.Decoder, reg *cluster.Registry) error {
	for {
		var m wireMsg
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		reg.Touch(p.id)
		switch m.Type {
		case wireHeartbeat:
			// The Touch was the payload.
			mHeartbeats.Inc()
		case wireResult:
			p.deliver(&m)
		default:
			return fmt.Errorf("unexpected frame %q from worker", m.Type)
		}
	}
}

// attach installs the active batch on the peer with a fresh window of
// `window` job credits. It returns the channel the batch's sender watches
// for the peer's departure.
func (p *clusterPeer) attach(b *clusterBatch, window int) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batch = b
	p.window = make(chan struct{}, window)
	p.goneCh = make(chan struct{})
	if p.gone {
		// The peer died before the batch attached; report it immediately.
		close(p.goneCh)
	}
	return p.goneCh
}

// detach uninstalls the batch at the end of dispatch; stray frames after
// this point are dropped.
func (p *clusterPeer) detach() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batch = nil
	if len(p.inflight) != 0 { // the batch is over; nothing can still be owed
		p.inflight = map[int]time.Time{}
	}
}

// claim records a job as in-flight just before its frame is sent. It
// reports false if the peer is already gone (the caller requeues instead of
// sending).
func (p *clusterPeer) claim(job int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gone {
		return false
	}
	p.inflight[job] = time.Now()
	mDispatched.Inc()
	mInflight.Inc()
	mWindowDepth.Observe(int64(len(p.inflight)))
	return true
}

// deliver hands a result frame to the active batch and frees the job's
// window credit. Results for jobs the peer does not hold (a batch that
// ended, a job requeued elsewhere after a spurious eviction) are dropped:
// the job index in the frame is only trusted when this peer demonstrably
// owns the job.
func (p *clusterPeer) deliver(m *wireMsg) {
	p.mu.Lock()
	start, owned := p.inflight[m.Job]
	b := p.batch
	window := p.window
	if !owned || b == nil {
		p.mu.Unlock()
		return
	}
	delete(p.inflight, m.Job)
	p.mu.Unlock()
	mCompleted.Inc()
	mInflight.Dec()
	// The job's credit is in the semaphore by construction (acquire happens
	// before claim, claim before send, send before any result), so this
	// never blocks; the default arm is belt and braces.
	select {
	case <-window:
	default:
	}
	b.complete(m, time.Since(start))
}

// leave ends the peer's participation: any jobs still in flight go back on
// the active batch's queue for the survivors, and the batch's sender is
// released.
func (p *clusterPeer) leave() {
	p.mu.Lock()
	if p.gone {
		p.mu.Unlock()
		return
	}
	p.gone = true
	b := p.batch
	jobs := make([]int, 0, len(p.inflight))
	for job := range p.inflight {
		jobs = append(jobs, job)
	}
	p.inflight = map[int]time.Time{}
	goneCh := p.goneCh
	p.mu.Unlock()
	mInflight.Add(-int64(len(jobs)))
	if b != nil {
		b.requeue(jobs)
	}
	if goneCh != nil {
		close(goneCh)
	}
}

// clusterBatch is the shared state of one RunTask dispatch.
type clusterBatch struct {
	task   string
	params json.RawMessage
	seed   uint64

	// queue holds every job not yet completed or in flight; its buffer is
	// the batch size, so a requeue (only possible while the job is pending)
	// never blocks. It closes exactly when the last job completes.
	queue    chan int
	results  []json.RawMessage
	errs     []string
	failed   []bool
	jobTimes []time.Duration

	pending  atomic.Int64
	done     chan struct{}
	requeues atomic.Int64
	// peerExit is a coalescing wakeup: the dispatcher re-examines the
	// membership whenever a sender goroutine exits (lost signals are fine —
	// a full buffer means a wakeup is already pending).
	peerExit chan struct{}

	// jnl, when set, checkpoints every completed job. Peer readers call
	// complete concurrently; jnlMu serialises their appends.
	jnl   *journal.Journal
	jnlMu sync.Mutex
}

// complete records one job's result — checkpointing it first, so a batch
// never reads as done with its last entry unwritten — and, on the last job,
// releases the whole batch.
func (b *clusterBatch) complete(m *wireMsg, took time.Duration) {
	b.jobTimes[m.Job] = took
	mDispatchLat.Observe(int64(took))
	if m.Error != "" {
		b.errs[m.Job] = m.Error
		b.failed[m.Job] = true
	} else {
		b.results[m.Job] = m.Value
	}
	if b.jnl != nil {
		e := journal.Entry{Job: m.Job}
		if m.Error != "" {
			e.Failed, e.Error = true, m.Error
		} else {
			e.Value = m.Value
		}
		b.jnlMu.Lock()
		err := b.jnl.Append(e)
		b.jnlMu.Unlock()
		if err != nil {
			// The checkpoint is a safety net: losing it degrades a future
			// resume, never this batch.
			fmt.Fprintf(os.Stderr, "engine cluster: %v\n", err)
		} else {
			mJournalWrites.Inc()
		}
	}
	if b.pending.Add(-1) == 0 {
		close(b.queue)
		close(b.done)
	}
}

// requeue returns a dead peer's in-flight jobs to the queue.
func (b *clusterBatch) requeue(jobs []int) {
	if len(jobs) == 0 {
		return
	}
	for _, job := range jobs {
		b.queue <- job
		b.requeues.Add(1)
	}
	mRequeues.Add(uint64(len(jobs)))
	obs.Emit("requeue", b.task, int64(len(jobs)), 0, 0)
}

// wakeDispatcher nudges the membership watcher (coalescing send).
func (b *clusterBatch) wakeDispatcher() {
	select {
	case b.peerExit <- struct{}{}:
	default:
	}
}

// RunTask implements Backend: stream the batch's jobs over every registered
// worker that announced the task — including workers that join mid-batch —
// with up to `window` jobs outstanding per peer, and fan the JSON results
// in by job index. Job errors surface with Map's semantics (every job still
// runs; the lowest-indexed failure returns with nil results, worded
// identically to every backend). A peer that dies or is evicted for silence
// has its in-flight jobs requeued for the survivors (Stats.Requeues); a
// distinct "cluster backend" transport error surfaces only when jobs are
// unfinished and no capable worker has been connected for the join-wait.
func (c *Cluster) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := checkBatch(task, params); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Jobs: n}
	if n < 0 {
		return nil, stats, fmt.Errorf("engine: negative job count %d", n)
	}
	if n == 0 {
		return []json.RawMessage{}, stats, nil
	}
	mBatches.Inc()

	// One batch at a time: peers hold a single active-batch slot.
	c.batchMu.Lock()
	defer c.batchMu.Unlock()

	// This batch's transport-error report must describe THIS batch: an
	// earlier batch's peer trouble is history, not an explanation.
	c.errMu.Lock()
	c.lastErr = nil
	c.errMu.Unlock()

	start := time.Now()
	b := &clusterBatch{
		task:     task,
		params:   params,
		seed:     cfg.seed,
		queue:    make(chan int, n),
		results:  make([]json.RawMessage, n),
		errs:     make([]string, n),
		failed:   make([]bool, n),
		jobTimes: make([]time.Duration, n),
		done:     make(chan struct{}),
		peerExit: make(chan struct{}, 1),
	}

	// Open the checkpoint journal (and, on resume, recover completed jobs)
	// before anything is enqueued: recovered jobs never touch the queue, so
	// they cannot be re-executed by any interleaving of joins and deaths.
	recovered, err := c.openJournal(b, n)
	if err != nil {
		return nil, stats, err
	}
	if b.jnl != nil {
		defer func() {
			b.jnlMu.Lock()
			closeErr := b.jnl.Close()
			b.jnlMu.Unlock()
			if closeErr != nil {
				fmt.Fprintf(os.Stderr, "engine cluster: %v\n", closeErr)
			}
		}()
	}
	stats.Resumed = len(recovered)
	remaining := 0
	b.pending.Store(int64(n - len(recovered)))
	for job := 0; job < n; job++ {
		if recovered[job] {
			continue
		}
		b.queue <- job
		remaining++
	}

	var workers int
	if remaining > 0 {
		workers, err = c.dispatch(b)
	} else {
		// Every job came out of the journal: nothing to dispatch, so the
		// batch completes without waiting for a single worker to join.
		close(b.queue)
	}
	stats.Workers = workers
	stats.Wall = time.Since(start)
	obs.Emit("batch", task, int64(n), int64(workers), int64(stats.Resumed))
	stats.JobTimes = b.jobTimes
	stats.Requeues = int(b.requeues.Load())
	if err != nil {
		return nil, stats, err
	}
	if err := surfaceJobErrors("cluster", b.results, b.errs, b.failed); err != nil {
		return nil, stats, err
	}
	return b.results, stats, nil
}

// openJournal wires the batch to the configured checkpoint journal (no-op
// without WithClusterJournal). On resume, recovered entries are written
// straight into the batch's result slots and reported in the returned set;
// the caller keeps them off the queue.
func (c *Cluster) openJournal(b *clusterBatch, n int) (recovered map[int]bool, err error) {
	if c.journalPath == "" {
		return nil, nil
	}
	h := journal.Header{
		Task:      b.task,
		ParamsSHA: journal.ParamsDigest(b.params),
		Seed:      b.seed,
		Jobs:      n,
	}
	if !c.resume {
		j, err := journal.Create(c.journalPath, h, c.journalEvery)
		if err != nil {
			return nil, fmt.Errorf("engine: cluster backend: %w", err)
		}
		b.jnl = j
		return nil, nil
	}
	j, entries, err := journal.Resume(c.journalPath, h, c.journalEvery)
	if err != nil {
		return nil, fmt.Errorf("engine: cluster backend: %w", err)
	}
	b.jnl = j
	recovered = make(map[int]bool, len(entries))
	for _, e := range entries {
		if e.Failed {
			b.errs[e.Job] = e.Error
			b.failed[e.Job] = true
		} else {
			b.results[e.Job] = e.Value
		}
		recovered[e.Job] = true
	}
	if len(entries) > 0 {
		mResumedJobs.Add(uint64(len(entries)))
		obs.Emit("resume", b.task, int64(len(entries)), int64(n), 0)
	}
	return recovered, nil
}

// dispatch runs the batch to completion: a membership watcher starts one
// sender per capable peer — current members and any that join mid-batch —
// and aborts only when jobs are unfinished and no capable peer has been
// connected for the whole join-wait. It returns how many distinct peers
// served the batch.
func (c *Cluster) dispatch(b *clusterBatch) (workers int, err error) {
	var wg sync.WaitGroup
	defer wg.Wait()
	var active atomic.Int64
	seen := map[int64]bool{}
	// The join-wait clock measures accumulated UNPRODUCTIVE idle time: it
	// runs while no capable worker is connected, pauses (without resetting)
	// while one is, and only a completed job resets it. A worker crash-loop
	// — join, die before finishing anything, rejoin — therefore burns the
	// budget instead of renewing it: before this accounting, every flap
	// reset the clock and a zero-progress batch could wait forever.
	var idleAccum time.Duration
	var idleStart time.Time // non-zero while the clock is running
	progressMark := b.pending.Load()
	for {
		// Fetch the change channel BEFORE snapshotting: a membership change
		// landing in between closes the channel we already hold, so the
		// wakeup cannot be lost.
		changed := c.reg.Changed()
		for _, m := range c.reg.Members() {
			if seen[m.ID] {
				continue
			}
			seen[m.ID] = true
			if !m.Has(b.task) {
				// Not a candidate — but say so: a cluster whose only
				// workers serve OTHER tasks (an engineworker joined to a
				// sweep coordinator, say) should fail with "wrong binary",
				// not "no worker ever joined".
				c.noteErr(fmt.Errorf("%s registered without task %q (serves %v — wrong worker binary?)",
					m.Remote, b.task, m.Tasks))
				continue
			}
			c.mu.Lock()
			p := c.peers[m.ID]
			c.mu.Unlock()
			if p == nil {
				continue // left between snapshot and lookup
			}
			workers++
			active.Add(1)
			wg.Add(1)
			go func(p *clusterPeer) {
				defer wg.Done()
				defer b.wakeDispatcher()
				defer active.Add(-1)
				c.runPeer(p, b)
			}(p)
		}

		now := time.Now()
		if p := b.pending.Load(); p < progressMark {
			progressMark = p
			idleAccum = 0
			idleStart = time.Time{}
		}
		var timeoutC <-chan time.Time
		if active.Load() > 0 {
			if !idleStart.IsZero() {
				idleAccum += now.Sub(idleStart)
				idleStart = time.Time{}
			}
		} else {
			if idleStart.IsZero() {
				idleStart = now
			}
			wait := c.joinWait - idleAccum - now.Sub(idleStart)
			if wait <= 0 {
				return workers, c.transportErr(b)
			}
			timeoutC = time.After(wait)
		}

		select {
		case <-b.done:
			return workers, nil
		case <-changed:
		case <-b.peerExit:
		case <-timeoutC:
		case <-c.closed:
			return workers, fmt.Errorf("engine: cluster backend closed with %d of %d jobs unfinished",
				b.pending.Load(), len(b.results))
		}
	}
}

// transportErr builds the all-workers-gone batch failure.
func (c *Cluster) transportErr(b *clusterBatch) error {
	c.errMu.Lock()
	last := c.lastErr
	c.errMu.Unlock()
	msg := fmt.Sprintf("engine: cluster backend: %d of %d jobs unfinished with no worker serving task %q for %v",
		b.pending.Load(), len(b.results), b.task, c.joinWait)
	if last != nil {
		return fmt.Errorf("%s; last worker trouble: %w", msg, last)
	}
	return errors.New(msg + "; no worker ever joined")
}

// runPeer streams jobs to one peer with up to c.window outstanding: take a
// job off the queue, acquire a window credit (freed when the job's result
// arrives), send the frame, repeat — no waiting for results in between.
// Only the first frame it sends carries the batch's params; the worker
// caches them for the rest of the batch. A peer's connection never carries
// two batches' frames interleaved (batches are serialised), and a requeued
// job lands on a peer whose own first frame carried the params, so the
// cache is always this batch's. It returns when the batch completes (queue
// closed) or the peer leaves; a job it could not place comes straight back
// on the queue, and the leave path requeues everything the peer still
// held.
func (c *Cluster) runPeer(p *clusterPeer, b *clusterBatch) {
	gone := p.attach(b, c.window)
	defer p.detach()
	paramsSent := false
	for {
		var job int
		var ok bool
		select {
		case job, ok = <-b.queue:
			if !ok {
				return // batch complete
			}
		case <-gone:
			return
		}
		// Acquire a window credit, watching for departure so the sender
		// never waits on a dead peer's never-coming results.
		select {
		case p.window <- struct{}{}:
		case <-gone:
			b.requeue([]int{job})
			return
		}
		if !p.claim(job) {
			b.requeue([]int{job})
			return
		}
		m := &wireMsg{Type: wireJob, Job: job, Task: b.task, Seed: JobSeed(b.seed, job)}
		if !paramsSent {
			m.Params = paramsBlob(b.params)
		}
		if err := p.send(m); err == nil {
			obs.Emit("dispatch", p.remote, int64(job), 0, 0)
			if !paramsSent {
				paramsSent = true
				mParamsFrames.Inc()
			}
		} else {
			// Sever the transport so cleanup funnels through the single
			// leave path: the failed connection's reader exits, leave()
			// requeues the just-claimed job with everything else in flight,
			// and only then (gone closed) may detach run — returning before
			// that would let the deferred detach discard the in-flight set
			// leave is about to requeue.
			c.noteErr(fmt.Errorf("%s: sending job %d: %w", p.remote, job, err))
			p.conn.Close()
			<-gone
			return
		}
	}
}
