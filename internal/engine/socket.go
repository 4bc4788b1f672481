package engine

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Socket is the cross-machine Backend: a coordinator that dials a static
// list of remote workers. Workers are engineworker/sweep processes listening
// on TCP or unix-socket addresses (see Serve / ListenAndServe); each
// connection opens with a version/task hello handshake (ProtocolVersion)
// and then speaks exactly the newline-delimited JSON job/result protocol of
// ServeWorker — the same frames the Process backend pipes over stdio, now
// crossing a network — fed by the shared remote dispatcher (lock-step
// unless WithWindow says otherwise, with journal and requeue, see
// RemoteOption).
//
// Determinism is inherited from the wire contract: every job frame carries
// the seed JobSeed(root, job) derived by the coordinator, so which peer ran
// a job — and whether it had to be re-dispatched after a peer died — never
// shows in the results.
//
// Fault tolerance is at the connection level: when a peer's transport fails
// (killed worker, dropped link), its in-flight jobs are requeued for the
// surviving peers and the coordinator re-dials the address once (after a
// short pause) before abandoning it. The batch only fails on transport
// grounds when every peer is gone with jobs still undispatched.
type Socket struct {
	addrs []string
	cfg   remoteConfig
	// redials is how many times an address is re-dialled after a failure —
	// a dial that never connected or a transport lost mid-batch — before
	// the peer is abandoned; redialWait is the pause before each re-dial.
	redials    int
	redialWait time.Duration
}

// socketDialTimeout bounds each connection attempt.
const socketDialTimeout = 10 * time.Second

// NewSocketWith builds a socket backend over the given worker addresses.
// Addresses are "host:port" (TCP), "unix:/path" or a bare filesystem path
// (unix socket); each batch dials one connection per address, lazily — an
// address is only dialled once it takes a job — and half-closes them all
// when the batch ends.
func NewSocketWith(addrs []string, opts ...RemoteOption) *Socket {
	return &Socket{
		addrs:      append([]string(nil), addrs...),
		cfg:        newRemoteConfig(1, opts),
		redials:    1,
		redialWait: 100 * time.Millisecond,
	}
}

// Name implements Backend.
func (s *Socket) Name() string { return "socket" }

// dial connects and handshakes the peer at the slot's address.
func (s *Socket) dial(slot int, task string) (*link, error) {
	addr := s.addrs[slot]
	network, address, err := splitWorkerAddr(addr)
	if err != nil {
		return nil, err
	}
	conn, err := dialWorkerConn(network, address, socketDialTimeout, s.cfg.tlsCfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", addr, err)
	}
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
	if err := clientHandshake(enc, dec, task, s.cfg.token); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake with %s: %w", addr, err)
	}
	return &link{
		remote:     addr,
		enc:        enc,
		dec:        dec,
		closeWrite: func() error { return closeWrite(conn) },
		sever:      conn.Close,
		// The worker's close ended the reader; closing our side too
		// cannot fail in a way that matters.
		wait: func() error { conn.Close(); return nil },
	}, nil
}

// closeWrite half-closes conn so the worker's ServeWorker loop sees EOF and
// its listener closes the connection; a transport without half-close is
// closed outright.
func closeWrite(conn net.Conn) error {
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return conn.Close()
}

// RunTask implements Backend: dispatch the batch over one peer per address
// (see runRemote). Every configured address participates even when there
// are more addresses than jobs: peers connect lazily, so surplus ones cost
// nothing — and they are the fallbacks that pick up a requeued job when
// another peer dies. Transport failures surface as distinct "socket
// backend" errors.
func (s *Socket) RunTask(task string, params json.RawMessage, n int, opts ...Option) ([]json.RawMessage, Stats, error) {
	if len(s.addrs) == 0 {
		return nil, Stats{}, fmt.Errorf("engine: socket backend has no worker addresses")
	}
	src := &linkSource{
		slots:     len(s.addrs),
		open:      func(slot int) (*link, error) { return s.dial(slot, task) },
		retries:   s.redials,
		retryWait: s.redialWait,
		grace:     defaultTeardownGrace,
	}
	return runRemote(s.Name(), &s.cfg, src, &troubleLog{}, nil, task, params, n, opts)
}
