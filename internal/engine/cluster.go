package engine

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/multiradio/chanalloc/internal/cluster"
	"github.com/multiradio/chanalloc/internal/ndjson"
	"github.com/multiradio/chanalloc/internal/obs"
)

// Cluster is the cross-machine Backend, built on membership: workers dial
// IN and register — so workers behind NAT, started late, or restarted
// mid-sweep can all join. The coordinator listens on one address, answers
// each connection's register handshake (protocol version, task registry
// and optional auth token, see registerHandshake), and tracks the
// membership in an internal/cluster registry: every frame a worker sends refreshes its
// liveness clock, and a worker silent past the eviction deadline is dropped
// with its in-flight jobs requeued for the survivors.
//
// Cluster is the accept source of the shared remote dispatcher (windowed,
// with journal and requeue, see RemoteOption): a batch streams over every
// member that announced its task, and a worker that joins after dispatch
// starts receives jobs immediately. Fan-in stays index-ordered and —
// because every job frame carries JobSeed(root, job) — byte-identical to
// the in-process pool for any window size, join order, or mid-batch
// join/leave (pinned by the backend-conformance suite). A batch dispatched
// with no members waits WithJoinWait for the first capable worker; it only
// fails on transport grounds when jobs are still unfinished and no capable
// worker has been connected for the whole join-wait.
type Cluster struct {
	lis  net.Listener
	addr string
	cfg  remoteConfig
	// heartbeat is the cadence advertised to joining workers; a member
	// silent for evict (default 4× heartbeat) is evicted. teardown bounds
	// Close's wait for per-connection goroutines after their transports
	// are severed.
	heartbeat time.Duration
	evict     time.Duration
	teardown  time.Duration
	// exhausted, when it closes, tells the feed that no worker can join
	// any more (every shard of a Process batch has exited), so a batch
	// with jobs left fails at once instead of after the join-wait. nil
	// (never) for a coordinator built by NewCluster.
	exhausted <-chan struct{}

	reg     *cluster.Registry
	mu      sync.Mutex // guards peers AND conns
	peers   map[int64]*peer
	conns   map[net.Conn]struct{} // every live connection, registered or not
	batchMu sync.Mutex            // serialises RunTask: peers carry one batch at a time
	trouble troubleLog            // this batch's latest peer failure

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // accept loop, monitor, peer readers
}

// NewCluster listens on addr — "host:port", ":port" (TCP), "unix:/path" or
// a bare filesystem path (unix socket) — and returns a membership Backend
// accepting worker joins (JoinAndServe, engineworker -join) from now on.
// Call Close when done with the backend, not per batch: the membership
// outlives individual RunTask calls.
func NewCluster(addr string, opts ...RemoteOption) (*Cluster, error) {
	lis, err := listenWorkerAddr(addr)
	if err != nil {
		return nil, err
	}
	return NewClusterOn(lis, opts...), nil
}

// NewClusterOn is NewCluster over an existing listener (tests and callers
// that picked their own port).
func NewClusterOn(lis net.Listener, opts ...RemoteOption) *Cluster {
	return newCluster(lis, opts).start()
}

// newCluster builds an unstarted coordinator with the default liveness
// cadence (a heartbeat every defaultHeartbeat, eviction after 4× that) and
// the shared teardown grace.
func newCluster(lis net.Listener, opts []RemoteOption) *Cluster {
	c := &Cluster{
		lis:       lis,
		cfg:       newRemoteConfig(8, opts),
		heartbeat: defaultHeartbeat,
		teardown:  defaultTeardownGrace,
		reg:       cluster.NewRegistry(),
		peers:     map[int64]*peer{},
		conns:     map[net.Conn]struct{}{},
		closed:    make(chan struct{}),
	}
	if addr := lis.Addr(); addr.Network() == "unix" {
		c.addr = "unix:" + addr.String()
	} else {
		c.addr = addr.String()
	}
	return c
}

// start begins accepting joins and evicting silent members.
func (c *Cluster) start() *Cluster {
	if c.cfg.tlsCfg != nil {
		// The TLS listener wraps accepted conns; Addr() still reports the
		// inner listener's address, so the join address is unchanged.
		c.lis = tls.NewListener(c.lis, c.cfg.tlsCfg)
	}
	if c.evict <= 0 {
		c.evict = 4 * c.heartbeat
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
	for _, conn := range c.liveConns() {
		conn.Close()
	}
}

// hangUp stops accepting joins and half-closes every live connection, so
// each worker reads the end of its job stream, ends its session and hangs
// up first: no frame it sent is then left unread when Close severs the
// coordinator's side, which would reset the worker's read.
func (c *Cluster) hangUp() {
	c.lis.Close()
	for _, conn := range c.liveConns() {
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
	}
}

// liveConns snapshots the live connections.
func (c *Cluster) liveConns() []net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	return conns
}

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

// registerBound bounds the register frame a coordinator reads from a
// connection it has not admitted yet, newline excluded, so a peer that
// never authenticates makes it buffer no more than this. The frame holds a
// protocol version, an auth token and the worker's task names, and nothing
// else of any size: the binaries of this repository register at most two
// names of under 20 bytes ("sweep/experiment", "dist/ring") and a token is
// a short shared secret, so 64 KiB leaves room for a thousand 60-byte
// names. Once the hello is sent the connection reads at maxFrameBytes.
const registerBound = 64 << 10

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
	rd := ndjson.NewReader(conn, registerBound)
	conn.SetReadDeadline(time.Now().Add(handshakeGrace))
	tasks, err := acceptRegistration(enc, rd, c.cfg.token, c.heartbeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine cluster: %s: %v\n", remoteName(conn), err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	rd.SetMax(maxFrameBytes)
	p := newPeer(remoteName(conn))
	p.enc, p.sever = enc, conn.Close
	// Register and publish atomically under c.mu: a feed woken by the
	// registry change must find the peer in c.peers on its next lookup, or
	// it would mark the member seen and skip it forever.
	c.mu.Lock()
	id := c.reg.Add(p.remote, tasks, conn.Close)
	c.peers[id] = p
	c.mu.Unlock()
	mPeers.Inc()

	// The reader is the peer's whole lifetime: when it returns — transport
	// failure, eviction's conn.Close, coordinator teardown — the peer
	// leaves, requeueing whatever it held.
	err = p.read(rd, func() { c.reg.Touch(id) })
	if err != nil {
		c.trouble.note(fmt.Errorf("%s: %w", p.remote, err))
	}
	c.mu.Lock()
	delete(c.peers, id)
	c.mu.Unlock()
	c.reg.Remove(id)
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
			c.trouble.note(fmt.Errorf("%s: evicted after %v of silence", m.Remote, c.evict))
		},
	}
	mon.Run(c.closed)
}

// RunTask implements Backend: dispatch the batch over every registered
// worker that announced the task, including workers that join mid-batch
// (see runRemote). Transport failures surface as distinct "cluster
// backend" errors.
func (c *Cluster) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	// One batch at a time: peers hold a single active-batch slot.
	c.batchMu.Lock()
	defer c.batchMu.Unlock()
	// This batch's transport-error report must describe THIS batch: an
	// earlier batch's peer trouble is history, not an explanation.
	c.trouble.note(nil)
	return runRemote(c.Name(), &c.cfg, c, &c.trouble, c.closed, task, params, n, opts)
}

// feed is the accept source: it hands the batch every member that serves
// its task — current members and any that join mid-batch — until the
// batch stops.
func (c *Cluster) feed(b *batch, arrivals chan<- *peer) {
	seen := map[int64]bool{}
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
				c.trouble.note(fmt.Errorf("%s registered without task %q (serves %v — wrong worker binary?)",
					m.Remote, b.task, m.Tasks))
				continue
			}
			c.mu.Lock()
			p := c.peers[m.ID]
			c.mu.Unlock()
			if p == nil {
				continue // left between snapshot and lookup
			}
			select {
			case arrivals <- p:
			case <-b.stop:
				return
			}
		}
		select {
		case <-changed:
		case <-b.stop:
			return
		case <-c.exhausted:
			return
		}
	}
}
