package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// ProtocolVersion is the version of the coordinator<->worker wire protocol.
// Network connections exchange it in the handshake that opens them (hello
// on dialled connections, register on joined ones), so binaries built from
// skewed revisions fail loudly at connect time instead of silently
// misinterpreting frames; stdio shards skip the handshake because parent
// and child are the same binary.
//
// History:
//
//	v1 — hello handshake; job/result frames with a mandatory seed field.
//	     Additive since: register/heartbeat frames (cluster membership,
//	     only ever spoken on worker-dials-coordinator connections, so a v1
//	     peer never sees them unsolicited), an optional auth token on hello
//	     and register, and the heartbeat_ms field of a register's reply.
//	v2 — a batch's params ride only on the first job frame a connection
//	     carries for the batch; a job frame without params means "reuse the
//	     params this connection cached". A v1 worker would run such a frame
//	     against absent params, so the change is incompatible.
//
// Bump it whenever a frame's meaning changes incompatibly (a field changing
// semantics, a mandatory field appearing). Purely additive fields do not
// need a bump: unknown fields are ignored by both ends.
const ProtocolVersion = 2

// handshakeGrace bounds how long a fresh connection may sit silent before
// completing its opening frame — the hello a socket worker awaits, the
// register a cluster coordinator awaits: a port scan, health-check probe
// or half-open client must not pin a goroutine and a descriptor (and, at
// teardown, Close) forever. A variable only so tests can shorten it.
var handshakeGrace = 30 * time.Second

// rejectAuthToken is the loud-but-secret-free reason a token mismatch
// reports: the token value itself never crosses the wire in an error.
const rejectAuthToken = "auth token mismatch (coordinator and worker -auth-token must agree)"

// clientHandshake opens a coordinator->worker connection: announce our
// protocol version, the task the batch will run and our auth token, then
// require a matching hello back. The worker rejects (with a reason in the
// reply's Error field) when versions differ, the task is not in its
// registry or the tokens disagree — all configuration mistakes that must
// surface before any job is dispatched.
func clientHandshake(enc *json.Encoder, dec *json.Decoder, task, token string) error {
	if err := enc.Encode(&wireMsg{Type: wireHello, Version: ProtocolVersion, Task: task, Token: token}); err != nil {
		return fmt.Errorf("sending hello: %w", err)
	}
	var reply wireMsg
	if err := dec.Decode(&reply); err != nil {
		return fmt.Errorf("awaiting hello reply (a pre-versioning or TLS-expecting worker closes here — do the -tls flags agree on both ends?): %w", err)
	}
	if reply.Type != wireHello {
		return fmt.Errorf("got frame %q for hello reply, want %q (worker speaks a pre-versioning protocol?)",
			reply.Type, wireHello)
	}
	if reply.Error != "" {
		return fmt.Errorf("worker rejected handshake: %s", reply.Error)
	}
	if reply.Version != ProtocolVersion {
		return fmt.Errorf("protocol version mismatch: coordinator v%d, worker v%d",
			ProtocolVersion, reply.Version)
	}
	return nil
}

// serverHandshake answers the worker end of the hello exchange. A rejected
// handshake is reported to the peer (reply with Error set) and returned so
// the caller closes the connection; an accepted one advertises the worker's
// protocol version and registered tasks. token is the worker's configured
// shared secret ("" means unauthenticated): the coordinator's token must
// match exactly — an authenticated worker rejects a token-less coordinator
// just as loudly as a wrong-token one.
func serverHandshake(enc *json.Encoder, dec *json.Decoder, token string) error {
	var m wireMsg
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("awaiting hello: %w", err)
	}
	reject := func(reason string) error {
		// Best effort: the coordinator may already be gone.
		_ = enc.Encode(&wireMsg{Type: wireHello, Version: ProtocolVersion, Error: reason})
		return fmt.Errorf("rejecting handshake: %s", reason)
	}
	if m.Type != wireHello {
		return reject(fmt.Sprintf("expected %q frame, got %q (coordinator speaks a pre-versioning protocol?)",
			wireHello, m.Type))
	}
	if m.Version != ProtocolVersion {
		return reject(fmt.Sprintf("protocol version mismatch: coordinator v%d, worker v%d",
			m.Version, ProtocolVersion))
	}
	if m.Token != token {
		return reject(rejectAuthToken)
	}
	if m.Task != "" {
		if _, ok := taskByName(m.Task); !ok {
			return reject(unknownTask(m.Task).Error())
		}
	}
	if err := enc.Encode(&wireMsg{Type: wireHello, Version: ProtocolVersion, Tasks: TaskNames()}); err != nil {
		return fmt.Errorf("sending hello reply: %w", err)
	}
	return nil
}

// errRegisterRejected tags registration failures that are coordinator
// VERDICTS — auth, version or protocol rejections a redial cannot change —
// as opposed to transport failures (connection lost, reply cut short),
// which the join loop should retry.
var errRegisterRejected = errors.New("registration rejected")

// registerHandshake is the worker end of the cluster join exchange — the
// hello handshake with the dialing direction reversed. The worker (which
// dialed in) announces its protocol version, registered tasks and auth
// token in a register frame; the coordinator answers with a standard hello
// reply — version, its own task registry, and the heartbeat cadence it
// expects — or a hello whose Error explains the rejection. It returns the
// heartbeat interval the coordinator advertised (0 if none); errors
// wrapping errRegisterRejected are verdicts, everything else is transport.
func registerHandshake(enc *json.Encoder, dec *json.Decoder, token string) (heartbeat time.Duration, err error) {
	if err := enc.Encode(&wireMsg{
		Type:    wireRegister,
		Version: ProtocolVersion,
		Tasks:   TaskNames(),
		Token:   token,
	}); err != nil {
		return 0, fmt.Errorf("sending register: %w", err)
	}
	var reply wireMsg
	if err := dec.Decode(&reply); err != nil {
		return 0, fmt.Errorf("awaiting register reply (a pre-membership or TLS-expecting coordinator closes here — do the -tls flags agree on both ends?): %w", err)
	}
	if reply.Type != wireHello {
		return 0, fmt.Errorf("%w: got frame %q for register reply, want %q",
			errRegisterRejected, reply.Type, wireHello)
	}
	if reply.Error != "" {
		// The coordinator's verdict is final: retrying cannot fix an auth,
		// version or registry rejection.
		return 0, fmt.Errorf("%w by coordinator: %s", errRegisterRejected, reply.Error)
	}
	if reply.Version != ProtocolVersion {
		return 0, fmt.Errorf("%w: protocol version mismatch: worker v%d, coordinator v%d",
			errRegisterRejected, ProtocolVersion, reply.Version)
	}
	return time.Duration(reply.HeartbeatMillis) * time.Millisecond, nil
}

// acceptRegistration is the coordinator end of the cluster join exchange:
// require a register frame with a matching version and token, reply with a
// hello carrying this coordinator's registry and expected heartbeat
// cadence, and return the worker's announced tasks.
func acceptRegistration(enc *json.Encoder, dec *json.Decoder, token string, heartbeat time.Duration) (tasks []string, err error) {
	var m wireMsg
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("awaiting register: %w", err)
	}
	reject := func(reason string) error {
		// Best effort: the worker may already be gone.
		_ = enc.Encode(&wireMsg{Type: wireHello, Version: ProtocolVersion, Error: reason})
		return fmt.Errorf("rejecting registration: %s", reason)
	}
	if m.Type != wireRegister {
		return nil, reject(fmt.Sprintf("expected %q frame, got %q (worker speaks a pre-membership protocol?)",
			wireRegister, m.Type))
	}
	if m.Version != ProtocolVersion {
		return nil, reject(fmt.Sprintf("protocol version mismatch: worker v%d, coordinator v%d",
			m.Version, ProtocolVersion))
	}
	if m.Token != token {
		return nil, reject(rejectAuthToken)
	}
	if err := enc.Encode(&wireMsg{
		Type:            wireHello,
		Version:         ProtocolVersion,
		Tasks:           TaskNames(),
		HeartbeatMillis: int(heartbeat / time.Millisecond),
	}); err != nil {
		return nil, fmt.Errorf("sending register reply: %w", err)
	}
	return m.Tasks, nil
}

// splitWorkerAddr resolves a worker address string into a (network, address)
// pair for net.Dial / net.Listen. "unix:" prefixes and bare filesystem paths
// select unix sockets; everything else is TCP host:port.
func splitWorkerAddr(addr string) (network, address string, err error) {
	switch {
	case strings.TrimSpace(addr) == "":
		return "", "", fmt.Errorf("engine: empty worker address")
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:"), nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:"), nil
	case strings.ContainsAny(addr, "/"):
		return "unix", addr, nil
	case !strings.Contains(addr, ":"):
		// TCP needs host:port; a colon-less address ("worker.sock") can
		// only be a relative unix-socket path.
		return "unix", addr, nil
	default:
		return "tcp", addr, nil
	}
}
