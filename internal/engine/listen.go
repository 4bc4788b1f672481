package engine

import (
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// serveConfig carries the options of Serve / ListenAndServe.
type serveConfig struct {
	token  string
	tlsCfg *tls.Config
	stop   <-chan struct{}
	drain  time.Duration
}

// ServeOption configures the listening worker loop.
type ServeOption func(*serveConfig)

// WithServeAuthToken sets the worker's shared secret: every hello handshake
// must announce the same token or the connection is rejected loudly, like
// version skew (default: no token, matching token-less coordinators only).
func WithServeAuthToken(token string) ServeOption {
	return func(c *serveConfig) { c.token = token }
}

// WithServeTLS makes the worker answer every accepted connection with a TLS
// server handshake (see ServerTLSConfig) before the hello exchange, so only
// coordinators dialing with the matching WithTLS / -tls-ca get as far
// as the protocol (default: plain connections).
func WithServeTLS(cfg *tls.Config) ServeOption {
	return func(c *serveConfig) { c.tlsCfg = cfg }
}

// WithServeStop makes Serve shut down gracefully when the channel closes:
// stop accepting, let in-flight connections drain (each ends when its
// coordinator half-closes), then return nil. Pair with
// WithServeDrainTimeout to bound the drain.
func WithServeStop(stop <-chan struct{}) ServeOption {
	return func(c *serveConfig) { c.stop = stop }
}

// WithServeDrainTimeout bounds the graceful drain after WithServeStop
// fires: connections still serving past the deadline are force-closed, the
// reap idiom (default 0: wait for every connection however long it takes).
func WithServeDrainTimeout(d time.Duration) ServeOption {
	return func(c *serveConfig) { c.drain = d }
}

// Serve runs the listening end of the socket worker loop: accept
// connections, answer the hello handshake (rejecting version, task or
// auth-token skew loudly, see ProtocolVersion), then serve jobs with
// ServeWorker — the very loop the Process backend drives over stdio — until
// the coordinator half-closes the connection. Connections are served
// concurrently; Serve returns nil when lis is closed (or the WithServeStop
// channel fires and the in-flight connections drain).
func Serve(lis net.Listener, opts ...ServeOption) error {
	cfg := serveConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.tlsCfg != nil {
		lis = tls.NewListener(lis, cfg.tlsCfg)
	}

	// Track live connections so a bounded drain can escalate to closing
	// them; the map doubles as the "what is still in flight" set.
	var connMu sync.Mutex
	conns := map[net.Conn]struct{}{}
	closeConns := func() {
		connMu.Lock()
		open := make([]net.Conn, 0, len(conns))
		for c := range conns {
			open = append(open, c)
		}
		connMu.Unlock()
		for _, c := range open {
			c.Close()
		}
	}

	if cfg.stop != nil {
		stopDone := make(chan struct{})
		defer close(stopDone)
		go func() {
			select {
			case <-cfg.stop:
				lis.Close() // acceptConns sees net.ErrClosed and returns nil
			case <-stopDone:
			}
		}()
	}

	var wg sync.WaitGroup
	err := acceptConns(lis, "engine worker", func(conn net.Conn) {
		connMu.Lock()
		conns[conn] = struct{}{}
		connMu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() {
				conn.Close()
				connMu.Lock()
				delete(conns, conn)
				connMu.Unlock()
			}()
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(conn)
			conn.SetReadDeadline(time.Now().Add(handshakeGrace))
			if err := serverHandshake(enc, dec, cfg.token); err != nil {
				fmt.Fprintf(os.Stderr, "engine worker: %s: %v\n", remoteName(conn), err)
				return
			}
			conn.SetReadDeadline(time.Time{})
			if err := serveConn(conn, dec); err != nil {
				fmt.Fprintf(os.Stderr, "engine worker: %s: %v\n", remoteName(conn), err)
			}
		}(conn)
	})
	// Drain in-flight connections — bounded by the drain timeout when one is
	// configured, escalating to force-closing the stragglers.
	if cfg.drain > 0 {
		reap(cfg.drain, func() error { wg.Wait(); return nil },
			func() error { closeConns(); return nil })
	}
	wg.Wait()
	return err
}

// acceptConns accepts connections until lis closes (returning nil), handing
// each to handle. A long-lived worker or coordinator must ride out
// transient accept failures (aborted connections, descriptor-pressure
// bursts) rather than die and strand every future batch — the net/http
// idiom, with exponential backoff logged under the given label. Shared by
// the socket worker loop (Serve) and the cluster coordinator.
func acceptConns(lis net.Listener, label string, handle func(net.Conn)) error {
	var backoff time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				fmt.Fprintf(os.Stderr, "%s: accept: %v; retrying in %v\n", label, err, backoff)
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("engine: accepting worker connection: %w", err)
		}
		backoff = 0
		handle(conn)
	}
}

// serveConn is ServeWorker over an established connection, reusing the
// handshake's decoder so no buffered bytes are lost.
func serveConn(conn net.Conn, dec *json.Decoder) error {
	return serveWorker(dec, json.NewEncoder(conn))
}

// ListenAndServe announces on addr — "host:port" or ":port" (TCP),
// "unix:/path" or a bare filesystem path (unix socket) — and serves worker
// connections until the process dies. Unix socket files are removed first
// so a restarted worker can rebind.
func ListenAndServe(addr string, opts ...ServeOption) error {
	lis, err := listenWorkerAddr(addr)
	if err != nil {
		return err
	}
	defer lis.Close()
	return Serve(lis, opts...)
}

// listenWorkerAddr announces on a worker-address string ("host:port",
// ":port", "unix:/path" or a bare socket path), removing a stale unix
// socket file first so a restarted process can rebind. Shared by the
// socket worker loop (ListenAndServe) and the cluster coordinator
// (NewCluster).
func listenWorkerAddr(addr string) (net.Listener, error) {
	network, address, err := splitWorkerAddr(addr)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		if err := os.Remove(address); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("engine: removing stale socket %s: %w", address, err)
		}
	}
	lis, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("engine: listening on %s: %w", addr, err)
	}
	return lis, nil
}

// remoteName labels a connection for worker-side logs.
func remoteName(conn net.Conn) string {
	if ra := conn.RemoteAddr(); ra != nil && strings.TrimSpace(ra.String()) != "" {
		return ra.String()
	}
	return "peer"
}
