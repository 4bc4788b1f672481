package engine

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Socket is the cross-machine Backend: a work-queue coordinator that
// dispatches a task batch over persistent connections to remote workers.
// Workers are engineworker/sweep processes listening on TCP or unix-socket
// addresses (see Serve / ListenAndServe); each connection opens with a
// version/task hello handshake (ProtocolVersion) and then speaks exactly
// the newline-delimited JSON job/result protocol of ServeWorker — the same
// frames the Process backend pipes over stdio, now crossing a network.
//
// Determinism is inherited from the wire contract: every job frame carries
// the seed JobSeed(root, job) derived by the coordinator, so which peer ran
// a job — and whether it had to be re-dispatched after a peer died — never
// shows in the results.
//
// Fault tolerance is at the connection level: when a peer's transport fails
// mid-job (killed worker, dropped link), the in-flight job is requeued for
// the surviving peers and the coordinator tries to re-dial the failed peer
// (WithRedials). The batch only fails on transport grounds when every peer
// is gone with jobs still undispatched.
type Socket struct {
	addrs       []string
	dialTimeout time.Duration
	redials     int
	redialWait  time.Duration
	teardown    time.Duration
	token       string
	tlsCfg      *tls.Config
}

// SocketOption configures a Socket backend.
type SocketOption func(*Socket)

// WithDialTimeout bounds each connection attempt (default 10s).
func WithDialTimeout(d time.Duration) SocketOption {
	return func(s *Socket) { s.dialTimeout = d }
}

// WithRedials sets how many times a peer connection is re-established after
// a failure — a dial that never connected or a transport lost mid-job —
// before the peer is abandoned (default 1). Each failure requeues the
// claimed job either way; redials only decide whether the peer gets
// another chance to serve.
func WithRedials(n int) SocketOption {
	return func(s *Socket) { s.redials = n }
}

// WithRedialWait sets the pause before a re-dial attempt (default 100ms).
func WithRedialWait(d time.Duration) SocketOption {
	return func(s *Socket) { s.redialWait = d }
}

// WithAuthToken sets the shared secret announced in the hello handshake.
// Workers started with the same token accept; any disagreement — wrong
// token, or only one side configured — fails loudly at connect time, like
// version skew (default: no token).
func WithAuthToken(token string) SocketOption {
	return func(s *Socket) { s.token = token }
}

// WithSocketTLS layers TLS client sessions under the job protocol: every
// peer dial handshakes with the given config (see ClientTLSConfig) before
// the hello frame is sent, so frame bytes are unchanged and certificate
// trouble surfaces as a dial error, not a mid-protocol decode failure.
// Workers must be listening with the matching WithServeTLS / -tls-cert
// (default: plain connections).
func WithSocketTLS(cfg *tls.Config) SocketOption {
	return func(s *Socket) { s.tlsCfg = cfg }
}

// WithSocketTeardown bounds the polite end-of-batch teardown per peer
// (half-close, await the worker's EOF echo) before the connection is
// force-closed; d <= 0 waits forever (default 5s, shared with the Process
// backend's shard reaping).
func WithSocketTeardown(d time.Duration) SocketOption {
	return func(s *Socket) { s.teardown = d }
}

// NewSocket builds a socket backend over the given worker addresses.
// Addresses are "host:port" (TCP), "unix:/path" or a bare filesystem path
// (unix socket); one persistent connection per address serves jobs for the
// whole batch.
func NewSocket(addrs ...string) *Socket {
	s := &Socket{
		addrs:       append([]string(nil), addrs...),
		dialTimeout: 10 * time.Second,
		redials:     1,
		redialWait:  100 * time.Millisecond,
		teardown:    defaultTeardownGrace,
	}
	return s
}

// NewSocketWith is NewSocket plus options.
func NewSocketWith(addrs []string, opts ...SocketOption) *Socket {
	s := NewSocket(addrs...)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Name implements Backend.
func (s *Socket) Name() string { return "socket" }

// socketPeer is one live worker connection with JSON framing.
type socketPeer struct {
	lockstep
	conn net.Conn
}

// dial connects and handshakes one peer.
func (s *Socket) dial(addr, task string) (*socketPeer, error) {
	network, address, err := splitWorkerAddr(addr)
	if err != nil {
		return nil, err
	}
	conn, err := dialWorkerConn(network, address, s.dialTimeout, s.tlsCfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", addr, err)
	}
	p := &socketPeer{lockstep: lockstep{enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, conn: conn}
	if err := clientHandshake(p.enc, p.dec, task, s.token); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake with %s: %w", addr, err)
	}
	return p, nil
}

// shutdown tears the peer connection down politely: half-close our writing
// side so the worker's ServeWorker loop sees EOF and its listener closes
// the connection, then await that close — escalating to a forced close via
// the shared reap helper if the worker hangs.
func (p *socketPeer) shutdown(grace time.Duration) error {
	type closeWriter interface{ CloseWrite() error }
	cw, ok := p.conn.(closeWriter)
	if !ok {
		return p.conn.Close()
	}
	if err := cw.CloseWrite(); err != nil {
		p.conn.Close()
		return nil
	}
	return reap(grace, func() error {
		// The worker answers the half-close by closing its side; any decode
		// outcome (EOF, reset, even a stray frame) means the connection is
		// done — the read only exists to wait for that close.
		var m wireMsg
		_ = p.dec.Decode(&m)
		p.conn.Close()
		return nil
	}, func() error { return p.conn.Close() })
}

// abort force-closes the peer after a transport failure.
func (p *socketPeer) abort() { p.conn.Close() }

// RunTask implements Backend: fan the batch's jobs out over the worker
// connections through a shared requeueing work queue and fan the JSON
// results in by job index. Job errors surface with Map's semantics — every
// job still runs, then the lowest-indexed failure is returned with nil
// results, worded identically to every other backend. A dead peer's
// in-flight job is requeued and re-dispatched to a surviving peer (counted
// in Stats.Requeues); only when every peer has failed with jobs left does a
// distinct "socket backend" transport error surface.
func (s *Socket) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := checkBatch(task, params); err != nil {
		return nil, Stats{}, err
	}
	if len(s.addrs) == 0 {
		return nil, Stats{}, fmt.Errorf("engine: socket backend has no worker addresses")
	}
	// Every configured peer participates even when there are more peers
	// than jobs: connections are dialed lazily (only when a peer takes a
	// job), so surplus peers cost nothing — and they are the fallbacks
	// that pick up a requeued job when another peer dies.
	peers := s.addrs
	stats := Stats{Workers: len(peers), Jobs: n}
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
	peerErrs := make([]error, len(peers))

	// The work queue. Its buffer holds every job, so a requeue — which can
	// only happen while the requeued job is still pending — never blocks.
	// The queue closes exactly when the last pending job completes, which
	// releases every idle peer.
	queue := make(chan int, n)
	for job := 0; job < n; job++ {
		queue <- job
	}
	var pending atomic.Int64
	pending.Store(int64(n))
	finish := func() {
		if pending.Add(-1) == 0 {
			close(queue)
		}
	}
	var requeues atomic.Int64

	var wg sync.WaitGroup
	for w, addr := range peers {
		wg.Add(1)
		go func(w int, addr string) {
			defer wg.Done()
			var peer *socketPeer
			redials := s.redials
			defer func() {
				if peer != nil {
					peer.shutdown(s.teardown)
				}
			}()
			for job := range queue {
				if peer == nil {
					p, err := s.dial(addr, task)
					if err != nil {
						// The job goes back on the queue either way; the
						// redial budget decides whether this peer keeps
						// trying to connect (a restarting worker) or is
						// abandoned — the same budget mid-job failures
						// consume.
						peerErrs[w] = err
						queue <- job
						requeues.Add(1)
						mRequeues.Inc()
						if redials <= 0 {
							return
						}
						redials--
						if s.redialWait > 0 {
							time.Sleep(s.redialWait)
						}
						continue
					}
					peer = p
				}
				jobStart := time.Now()
				reply, err := peer.runJob(&wireMsg{
					Type: wireJob,
					Job:  job,
					Task: task,
					Seed: JobSeed(cfg.seed, job),
				}, blob)
				stats.JobTimes[job] = time.Since(jobStart)
				if err != nil {
					// Transport failure mid-job: the job is requeued for the
					// surviving peers, and this peer gets another connection
					// if its redial budget allows.
					peerErrs[w] = fmt.Errorf("%s: %w", addr, err)
					peer.abort()
					peer = nil
					queue <- job
					requeues.Add(1)
					mRequeues.Inc()
					if redials <= 0 {
						return
					}
					redials--
					if s.redialWait > 0 {
						time.Sleep(s.redialWait)
					}
					continue
				}
				if reply.Error != "" {
					errs[job] = reply.Error
					failed[job] = true
				} else {
					results[job] = reply.Value
				}
				finish()
			}
		}(w, addr)
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	stats.Requeues = int(requeues.Load())

	// Transport failure only counts when it lost work: jobs still pending
	// after every peer returned mean the every-job-runs contract was broken.
	if left := pending.Load(); left > 0 {
		first := fmt.Errorf("no peer error recorded")
		for _, err := range peerErrs {
			if err != nil {
				first = err
				break
			}
		}
		return nil, stats, fmt.Errorf("engine: socket backend: %d of %d jobs undispatched after all %d peers failed; first failure: %w",
			left, n, len(peers), first)
	}
	if err := surfaceJobErrors("socket", results, errs, failed); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}
