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
	"time"

	"github.com/multiradio/chanalloc/internal/cluster"
	"github.com/multiradio/chanalloc/internal/ndjson"
)

// joinDialTimeout bounds each join connection attempt and the
// registration exchange that follows it.
const joinDialTimeout = 10 * time.Second

// defaultHeartbeat is the cadence a coordinator advertises to the workers
// that join it, and the one a worker keeps if the hello names none.
const defaultHeartbeat = 2 * time.Second

// joinConfig carries the options of JoinAndServe.
type joinConfig struct {
	token       string
	attempts    int
	retryWait   time.Duration
	backoffSeed uint64
	heartbeat   time.Duration
	stop        <-chan struct{}
	tlsCfg      *tls.Config
	logf        func(format string, args ...any)
}

// JoinOption configures JoinAndServe.
type JoinOption func(*joinConfig)

// WithJoinAuthToken sets the shared secret presented at registration; it
// must match the coordinator's WithAuthToken / -auth-token or the
// join is rejected loudly.
func WithJoinAuthToken(token string) JoinOption {
	return func(c *joinConfig) { c.token = token }
}

// WithJoinAttempts bounds CONSECUTIVE failed join attempts before
// JoinAndServe gives up (default 0: retry forever — a worker outlives the
// coordinators it serves). A completed session resets the budget.
func WithJoinAttempts(n int) JoinOption {
	return func(c *joinConfig) { c.attempts = n }
}

// WithJoinRetryWait sets the backoff after the first failed attempt; it
// doubles per consecutive failure up to 10× (default 200ms).
func WithJoinRetryWait(d time.Duration) JoinOption {
	return func(c *joinConfig) { c.retryWait = d }
}

// WithJoinStop makes JoinAndServe return (nil) when the channel closes —
// the test-and-embedder hook for shutting a worker down.
func WithJoinStop(stop <-chan struct{}) JoinOption {
	return func(c *joinConfig) { c.stop = stop }
}

// WithJoinTLS layers a TLS client session under the register/job protocol:
// the join dial handshakes with the given config (see ClientTLSConfig)
// before the register frame is sent. The coordinator must be listening with
// the matching WithTLS / -tls-cert (default: plain connections).
func WithJoinTLS(cfg *tls.Config) JoinOption {
	return func(c *joinConfig) { c.tlsCfg = cfg }
}

// WithJoinBackoffSeed seeds the retry loop's backoff jitter so tests can
// pin the exact wait sequence (default 0: a process-unique seed, so a fleet
// of workers restarted together spreads its redials instead of thundering
// back in lock-step).
func WithJoinBackoffSeed(seed uint64) JoinOption {
	return func(c *joinConfig) { c.backoffSeed = seed }
}

// joinLogf is the default transient-failure logger (stderr, the
// acceptConns idiom); tests silence it through the config.
func joinLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// JoinAndServe turns the process into a cluster worker: dial the
// coordinator at addr ("host:port", "unix:/path" or a bare socket path),
// register — protocol version, this process's task registry, auth token —
// and serve jobs until the coordinator goes away, then redial and rejoin.
// The worker dials in, so it can live behind NAT, start before the
// coordinator exists, or join a sweep that is already mid-batch.
//
// Serving is pipelined: the coordinator keeps a window of jobs in flight,
// the worker executes them in arrival order while heartbeating at the
// cadence the coordinator advertised, so a long-running job never reads as
// silence. Permanent rejections (auth token, protocol version) return
// immediately; transient failures (no coordinator yet, connection lost)
// retry with exponential backoff, bounded by WithJoinAttempts if set.
func JoinAndServe(addr string, opts ...JoinOption) error {
	cfg := joinConfig{
		retryWait: 200 * time.Millisecond,
		heartbeat: defaultHeartbeat,
		logf:      joinLogf,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	network, address, err := splitWorkerAddr(addr)
	if err != nil {
		return err
	}
	return cluster.Retry(cfg.stop, cluster.RetryConfig{
		Attempts: cfg.attempts,
		Wait:     cfg.retryWait,
		Seed:     cfg.backoffSeed,
	}, func() error {
		err := joinOnce(network, address, &cfg)
		if err != nil && !cluster.IsPermanent(err) {
			cfg.logf("engine worker: joining %s: %v (will retry)", addr, err)
		}
		return err
	})
}

// joinOnce runs one full worker session: dial, register, serve until the
// transport ends. A nil return is a session that ended with the
// coordinator closing the connection (teardown or restart) — JoinAndServe
// redials, and a Process shard (RunWorkerIfRequested) exits. Registration VERDICTS (auth, version, protocol rejections —
// errRegisterRejected) are Permanent: retrying cannot fix them. Everything
// else — a reply cut short by a dying coordinator, a handshake deadline, a
// reset — is transport trouble and transient.
func joinOnce(network, address string, cfg *joinConfig) error {
	conn, err := dialWorkerConn(network, address, joinDialTimeout, cfg.tlsCfg)
	if err != nil {
		return err
	}
	defer conn.Close()
	// The stop hook covers the WHOLE session, registration included: a
	// worker pointed at something that accepts but never replies must
	// still be shutdownable.
	if cfg.stop != nil {
		stopDone := make(chan struct{})
		defer close(stopDone)
		go func() {
			select {
			case <-cfg.stop:
				conn.Close()
			case <-stopDone:
			}
		}()
	}
	enc := json.NewEncoder(conn)
	rd := ndjson.NewReader(conn, maxFrameBytes)
	// Bound the handshake as the coordinator does with handshakeGrace: a
	// peer that accepts and goes mute must not pin the join loop. The
	// deadline error is a net.Error — transient, so the loop retries.
	conn.SetDeadline(time.Now().Add(joinDialTimeout))
	heartbeat, err := registerHandshake(enc, rd, cfg.token)
	if err != nil {
		if errors.Is(err, errRegisterRejected) {
			return cluster.Permanent(err)
		}
		return err
	}
	conn.SetDeadline(time.Time{})
	if heartbeat <= 0 {
		heartbeat = cfg.heartbeat
	}
	return serveJoined(conn, rd, heartbeat)
}

// serveJoined is the worker's serving loop after a successful
// registration: a reader buffers incoming job frames (the coordinator
// pipelines up to its window), the main loop executes them in arrival
// order against the session's params cache (the first job frame of a
// batch carries the params, the rest reuse them), and a ticker heartbeats
// on the shared encoder so the coordinator never mistakes a long job for
// silence. Job failures are replies, not transport failures: the worker
// keeps serving, which lets a batch run every job even when some fail,
// exactly like the in-process pool. The session ends when the transport
// does — including joinOnce's stop hook closing the connection.
func serveJoined(conn net.Conn, rd *ndjson.Reader, heartbeat time.Duration) error {
	var sendMu sync.Mutex
	enc := json.NewEncoder(conn)
	send := func(m *wireMsg) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return enc.Encode(m)
	}

	// The job buffer absorbs the coordinator's pipeline window; beyond it,
	// TCP backpressure takes over. readErr carries the reader's verdict:
	// nil for a clean close (coordinator teardown), an error otherwise.
	jobs := make(chan wireMsg, 64)
	readErr := make(chan error, 1)
	go func() {
		defer close(jobs)
		for {
			var m wireMsg
			if err := nextJob(rd, &m); err != nil {
				if err == io.EOF {
					err = nil
				}
				readErr <- err
				return
			}
			jobs <- m
		}
	}()

	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-ticker.C:
				// A failed heartbeat means the transport is going; the
				// reader will notice and end the session.
				if err := send(&wireMsg{Type: wireHeartbeat}); err != nil {
					return
				}
			}
		}
	}()

	var session workerSession
	for m := range jobs {
		if err := send(session.execute(&m)); err != nil {
			conn.Close()
			// The reader may be parked on a full jobs buffer rather than in
			// a read (a coordinator window deeper than the buffer), where
			// the conn close cannot reach it — drain until it exits, or
			// the <-readErr below would deadlock the whole join loop.
			go func() {
				for range jobs {
				}
			}()
			<-readErr
			return fmt.Errorf("sending result for job %d: %w", m.Job, err)
		}
	}
	return <-readErr
}
