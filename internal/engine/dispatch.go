package engine

import (
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiradio/chanalloc/internal/journal"
	"github.com/multiradio/chanalloc/internal/ndjson"
	"github.com/multiradio/chanalloc/internal/obs"
)

// The remote dispatcher: the one job loop behind every remote backend.
// Every peer is a member of a Cluster (see peerSource): a worker that
// dialed in, or one of a Process batch's shards, which join the batch's
// private cluster. Both backends stream a batch through runRemote:
// journal recovery, a requeueing work queue, a window of outstanding jobs
// per peer, index-ordered fan-in.

// RemoteOption configures a remote backend (Process, Cluster). The two
// share one dispatcher, so they share one option set; Process ignores TLS
// and the auth token, since its shards join a socket in a directory only
// its user can enter.
type RemoteOption func(*remoteConfig)

// remoteConfig carries the RemoteOption settings.
type remoteConfig struct {
	window   int
	token    string
	tlsCfg   *tls.Config
	joinWait time.Duration

	journalPath  string
	journalEvery int
	resume       bool
}

// newRemoteConfig applies opts over the defaults; window is the backend's
// default window.
func newRemoteConfig(window int, opts []RemoteOption) remoteConfig {
	cfg := remoteConfig{window: window, joinWait: 30 * time.Second, journalEvery: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithWindow sets the per-peer window of outstanding jobs. Window 1 is
// lock-step dispatch — a peer takes its next job only once it has answered
// the last, so long jobs balance across peers as they free up — and the
// default of Process; larger windows pipeline sends so small-job batches
// stop paying one round-trip per job, and 8 is the Cluster default. The window never affects results, only wall clock.
func WithWindow(n int) RemoteOption {
	return func(c *remoteConfig) {
		if n > 0 {
			c.window = n
		}
	}
}

// WithAuthToken sets the shared secret a Cluster requires in every
// joining worker's register frame. Any disagreement — wrong token, or only
// one side configured — fails loudly at connect time, like version skew
// (default: no token).
func WithAuthToken(token string) RemoteOption {
	return func(c *remoteConfig) { c.token = token }
}

// WithTLS layers TLS under the job protocol: a Cluster answers every
// joining connection with cfg as a server (see ServerTLSConfig; workers
// dial with WithJoinTLS / -tls-ca). Frame bytes are unchanged, and
// certificate trouble surfaces at connect time, not as a mid-protocol
// decode failure (default: plain connections).
func WithTLS(cfg *tls.Config) RemoteOption {
	return func(c *remoteConfig) { c.tlsCfg = cfg }
}

// WithJoinWait bounds the batch's accumulated time with NO peer serving it
// while more may still arrive (default 30s): a Cluster waiting for joins
// or for a lost worker to rejoin. The clock pauses while a peer is serving
// and resets when a job completes — so a worker stuck in a join/crash loop
// without ever finishing a job burns the budget instead of renewing it.
func WithJoinWait(d time.Duration) RemoteOption {
	return func(c *remoteConfig) {
		if d > 0 {
			c.joinWait = d
		}
	}
}

// WithJournal checkpoints batch progress to an append-only NDJSON file at
// path (see internal/journal): the batch's identity on the first line, then
// one entry per completed job carrying the exact result bytes. Without
// WithResume the file is truncated at each RunTask; journal write failures
// are logged, never fatal — the checkpoint is a safety net, not a
// dependency (default: no journal).
func WithJournal(path string) RemoteOption {
	return func(c *remoteConfig) { c.journalPath = path }
}

// WithResume makes RunTask recover an existing journal first: jobs with a
// checkpointed result are filled in from the journal (counted in
// Stats.Resumed, never re-executed) and only the remainder is dispatched.
// The journal's batch identity — task, params hash, root seed, job count —
// must match exactly or the batch fails loudly; a missing file degenerates
// to a fresh journal. A torn final line (the previous coordinator died
// mid-append) is truncated silently.
func WithResume(on bool) RemoteOption {
	return func(c *remoteConfig) { c.resume = on }
}

// WithJournalFsync sets the journal's durability cadence: fsync after every
// n appended entries (default 1 — every entry; larger values trade a crash
// losing up to n-1 checkpoints for fewer disk stalls).
func WithJournalFsync(n int) RemoteOption {
	return func(c *remoteConfig) {
		if n > 0 {
			c.journalEvery = n
		}
	}
}

// peerSource supplies one batch's peers. feed hands each peer to the
// dispatcher on arrivals (giving up when b.stop closes) and returns once it
// can yield no more; a source that may always yield another (a listener)
// returns only on b.stop.
type peerSource interface {
	feed(b *batch, arrivals chan<- *peer)
}

// troubleLog remembers the latest peer failure for transport-error reports.
type troubleLog struct {
	mu   sync.Mutex
	last error
}

func (t *troubleLog) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last = err
}

func (t *troubleLog) latest() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// peer is one worker connection feeding the dispatcher, whatever its
// source. Its reader (see read) routes results to the active batch for the
// connection's lifetime; when the reader ends, leave requeues whatever the
// peer still held.
type peer struct {
	remote string
	// sever forces the transport down (connection close); the reader then
	// ends and leave runs.
	sever func() error

	enc *json.Encoder // written only by the batch's sender, runPeer

	mu       sync.Mutex
	inflight map[int]time.Time // job -> dispatch time, owned by the active batch
	batch    *batch            // nil between batches
	window   chan struct{}     // per-batch counting semaphore of outstanding jobs
	gone     bool
	goneCh   chan struct{} // closed on leave
}

// newPeer returns a peer with no batch attached.
func newPeer(remote string) *peer {
	return &peer{remote: remote, inflight: map[int]time.Time{}, goneCh: make(chan struct{})}
}

// read routes the peer's incoming frames until the transport ends: every
// frame refreshes the liveness clock through touch, results go to the
// active batch. Any read or decode error ends the peer.
func (p *peer) read(rd *ndjson.Reader, touch func()) error {
	for {
		var m wireMsg
		if err := rd.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		touch()
		switch m.Type {
		case wireHeartbeat:
			// The touch was the payload.
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
func (p *peer) attach(b *batch, window int) <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batch = b
	p.window = make(chan struct{}, window)
	return p.goneCh
}

// detach uninstalls the batch at the end of dispatch; stray frames after
// this point are dropped.
func (p *peer) detach() {
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
func (p *peer) claim(job int) bool {
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
func (p *peer) deliver(m *wireMsg) {
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
func (p *peer) leave() {
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
	p.mu.Unlock()
	mInflight.Add(-int64(len(jobs)))
	if b != nil {
		b.requeue(jobs)
	}
	close(p.goneCh)
}

// batch is the shared state of one remote RunTask dispatch.
type batch struct {
	backend string
	task    string
	params  json.RawMessage
	seed    uint64
	window  int

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
	stop     chan struct{} // closed when dispatch returns, for any reason
	requeues atomic.Int64
	workers  atomic.Int64 // peers that received at least one job
	// peerExit is a coalescing wakeup: the dispatcher re-examines its
	// peers whenever a sender goroutine exits (lost signals are fine — a
	// full buffer means a wakeup is already pending).
	peerExit chan struct{}
	trouble  *troubleLog

	// jnl, when set, checkpoints every completed job. Peer readers call
	// complete concurrently; jnlMu serialises their appends.
	jnl   *journal.Journal
	jnlMu sync.Mutex
}

// complete records one job's result — checkpointing it first, so a batch
// never reads as done with its last entry unwritten — and, on the last job,
// releases the whole batch.
func (b *batch) complete(m *wireMsg, took time.Duration) {
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
			fmt.Fprintf(os.Stderr, "engine %s: %v\n", b.backend, err)
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
func (b *batch) requeue(jobs []int) {
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

// wakeDispatcher nudges the dispatcher (coalescing send).
func (b *batch) wakeDispatcher() {
	select {
	case b.peerExit <- struct{}{}:
	default:
	}
}

// runRemote is RunTask for every remote backend: stream the batch's jobs
// over the peers src supplies — including peers that arrive mid-batch —
// with up to cfg.window jobs outstanding per peer, and fan the JSON results
// in by job index. Job errors surface with Map's semantics (every job still
// runs; the lowest-indexed failure returns with nil results, worded
// identically to every backend). A peer that dies, or is evicted for
// silence, has its in-flight jobs requeued for the survivors
// (Stats.Requeues); a distinct "<backend> backend" transport error surfaces
// only when jobs are unfinished and no peer is left to run them (see
// dispatch). closed, when it fires, abandons the batch (Cluster.Close).
func runRemote(backend string, cfg *remoteConfig, src peerSource, trouble *troubleLog, closed <-chan struct{},
	task string, params json.RawMessage, n int, opts []Option) ([]json.RawMessage, Stats, error) {
	bcfg := config{}
	for _, opt := range opts {
		opt(&bcfg)
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

	start := time.Now()
	b := &batch{
		backend:  backend,
		task:     task,
		params:   params,
		seed:     bcfg.seed,
		window:   cfg.window,
		queue:    make(chan int, n),
		results:  make([]json.RawMessage, n),
		errs:     make([]string, n),
		failed:   make([]bool, n),
		jobTimes: make([]time.Duration, n),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		peerExit: make(chan struct{}, 1),
		trouble:  trouble,
	}

	// Open the checkpoint journal (and, on resume, recover completed jobs)
	// before anything is enqueued: recovered jobs never touch the queue, so
	// they cannot be re-executed by any interleaving of joins and deaths.
	recovered, err := openJournal(cfg, b, n)
	if err != nil {
		return nil, stats, err
	}
	if b.jnl != nil {
		defer func() {
			b.jnlMu.Lock()
			closeErr := b.jnl.Close()
			b.jnlMu.Unlock()
			if closeErr != nil {
				fmt.Fprintf(os.Stderr, "engine %s: %v\n", backend, closeErr)
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

	if remaining > 0 {
		err = dispatch(b, src, cfg.joinWait, closed)
	} else {
		// Every job came out of the journal: nothing to dispatch, so the
		// batch completes without a single peer.
		close(b.queue)
	}
	stats.Workers = int(b.workers.Load())
	stats.Wall = time.Since(start)
	obs.Emit("batch", task, int64(n), int64(stats.Workers), int64(stats.Resumed))
	stats.JobTimes = b.jobTimes
	stats.Requeues = int(b.requeues.Load())
	if err != nil {
		return nil, stats, err
	}
	if err := surfaceJobErrors(backend, b.results, b.errs, b.failed); err != nil {
		return nil, stats, err
	}
	return b.results, stats, nil
}

// openJournal wires the batch to the configured checkpoint journal (no-op
// without WithJournal). On resume, recovered entries are written straight
// into the batch's result slots and reported in the returned set; the
// caller keeps them off the queue.
func openJournal(cfg *remoteConfig, b *batch, n int) (recovered map[int]bool, err error) {
	if cfg.journalPath == "" {
		return nil, nil
	}
	h := journal.Header{
		Task:      b.task,
		ParamsSHA: journal.ParamsDigest(b.params),
		Seed:      b.seed,
		Jobs:      n,
	}
	if !cfg.resume {
		j, err := journal.Create(cfg.journalPath, h, cfg.journalEvery)
		if err != nil {
			return nil, fmt.Errorf("engine: %s backend: %w", b.backend, err)
		}
		b.jnl = j
		return nil, nil
	}
	j, entries, err := journal.Resume(cfg.journalPath, h, cfg.journalEvery)
	if err != nil {
		return nil, fmt.Errorf("engine: %s backend: %w", b.backend, err)
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

// dispatch runs the batch to completion: it starts one sender (runPeer) per
// peer the source supplies — at the start or mid-batch — and gives up only
// when jobs are unfinished and no peer is serving, either because the
// source is exhausted (every shard of a Process batch has exited) or
// because none has served for the whole join-wait (a cluster nobody
// joins).
func dispatch(b *batch, src peerSource, joinWait time.Duration, closed <-chan struct{}) error {
	arrivals := make(chan *peer)
	fed := make(chan struct{})
	go func(out chan<- *peer) {
		defer close(fed)
		defer close(out)
		src.feed(b, out)
	}(arrivals)
	var wg sync.WaitGroup
	defer func() {
		// Senders first, so a source's teardown never races a sender.
		close(b.stop)
		wg.Wait()
		<-fed
	}()
	var active atomic.Int64
	// The join-wait clock measures accumulated UNPRODUCTIVE idle time: it
	// runs while no peer is serving, pauses (without resetting) while one
	// is, and only a completed job resets it. A worker crash-loop — join,
	// die before finishing anything, rejoin — therefore burns the budget
	// instead of renewing it.
	var idleAccum time.Duration
	var idleStart time.Time // non-zero while the clock is running
	progressMark := b.pending.Load()
	for {
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
			if arrivals == nil {
				select {
				case <-b.done: // the last peer left after the last result
					return nil
				default:
				}
				return b.exhaustedErr()
			}
			if idleStart.IsZero() {
				idleStart = now
			}
			wait := joinWait - idleAccum - now.Sub(idleStart)
			if wait <= 0 {
				return b.idleErr(joinWait)
			}
			timeoutC = time.After(wait)
		}

		select {
		case p, ok := <-arrivals:
			if !ok {
				arrivals = nil // the source is exhausted
				continue
			}
			active.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer b.wakeDispatcher()
				defer active.Add(-1)
				runPeer(p, b)
			}()
		case <-b.done:
			return nil
		case <-b.peerExit:
		case <-timeoutC:
		case <-closed:
			return fmt.Errorf("engine: %s backend closed with %d of %d jobs unfinished",
				b.backend, b.pending.Load(), len(b.results))
		}
	}
}

// exhaustedErr is the batch failure once every peer the source could ever
// supply has failed.
func (b *batch) exhaustedErr() error {
	last := b.trouble.latest()
	if last == nil {
		last = errors.New("no peer error recorded")
	}
	return fmt.Errorf("engine: %s backend: %d of %d jobs undispatched after every peer failed; last failure: %w",
		b.backend, b.pending.Load(), len(b.results), last)
}

// idleErr is the batch failure once no peer has served for the join-wait.
func (b *batch) idleErr(joinWait time.Duration) error {
	msg := fmt.Sprintf("engine: %s backend: %d of %d jobs unfinished with no worker serving task %q for %v",
		b.backend, b.pending.Load(), len(b.results), b.task, joinWait)
	if last := b.trouble.latest(); last != nil {
		return fmt.Errorf("%s; last worker trouble: %w", msg, last)
	}
	return errors.New(msg + "; no worker ever joined")
}

// runPeer streams jobs to one peer with up to b.window outstanding: acquire
// a window credit (freed when a result arrives), take a job off the queue,
// send the frame, repeat — no waiting for results in between. The credit
// comes first so a peer never holds a job it cannot send yet: at window 1
// a busy peer leaves the queue to the free ones.
// Only the first frame it sends carries the batch's params; the worker
// caches them for the rest of the batch. A peer's connection never carries
// two batches' frames interleaved (batches are serialised), and a requeued
// job lands on a peer whose own first frame carried the params, so the
// cache is always this batch's. It returns when the batch completes (queue
// closed) or the peer leaves; a job it could not place comes straight back
// on the queue, and the leave path requeues everything the peer still
// held.
func runPeer(p *peer, b *batch) {
	gone := p.attach(b, b.window)
	defer p.detach()
	paramsSent := false
	for {
		// Acquire a window credit, watching for departure so the sender
		// never waits on a dead peer's never-coming results.
		select {
		case p.window <- struct{}{}:
		case <-gone:
			return
		}
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
		if !p.claim(job) {
			b.requeue([]int{job})
			return
		}
		m := &wireMsg{Type: wireJob, Job: job, Task: b.task, Seed: JobSeed(b.seed, job)}
		if !paramsSent {
			m.Params = paramsBlob(b.params)
		}
		if err := p.enc.Encode(m); err == nil {
			obs.Emit("dispatch", p.remote, int64(job), 0, 0)
			if !paramsSent {
				paramsSent = true
				mParamsFrames.Inc()
				b.workers.Add(1)
			}
		} else {
			// Sever the transport so cleanup funnels through the single
			// leave path: the failed connection's reader exits, leave()
			// requeues the just-claimed job with everything else in flight,
			// and only then (gone closed) may detach run — returning before
			// that would let the deferred detach discard the in-flight set
			// leave is about to requeue.
			b.trouble.note(fmt.Errorf("%s: sending job %d: %w", p.remote, job, err))
			p.sever()
			<-gone
			return
		}
	}
}
