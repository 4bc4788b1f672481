package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"

	"github.com/multiradio/chanalloc/internal/ndjson"
)

// WorkerEnv is the environment variable that switches a re-exec'd binary
// into engine-worker mode: set to a coordinator's address, it makes the
// process join that coordinator for one session instead of running its
// normal main. Host programs opt in by calling RunWorkerIfRequested before
// doing anything else; the Process backend sets it to its batch's private
// socket when it spawns shards.
const WorkerEnv = "CHANALLOC_ENGINE_WORKER"

// Wire frame kinds of the coordinator<->worker protocol. Every frame is one
// JSON object on one line, ended by exactly one newline; both ends read
// them with the shared line reader (internal/ndjson) at maxFrameBytes, so
// a frame split across lines, or two frames on one line, does not decode.
// Unknown fields are ignored so the protocol can grow.
const (
	wireHello     = "hello"     // coordinator -> worker: the reply to a register
	wireJob       = "job"       // coordinator -> worker: one task job to run
	wireResult    = "result"    // worker -> coordinator: the job's value or error
	wireRegister  = "register"  // worker -> coordinator: cluster membership registration
	wireHeartbeat = "heartbeat" // worker -> coordinator: cluster liveness beacon
)

// maxFrameBytes bounds one frame of the worker protocol, newline excluded.
// It is derived from the largest legitimate frame, a token ring's result
// (dist's ring task, E12's grid): the ring's strategy matrix, written for
// a game within workload.MaxCells = 1<<22 cells. A row's radios sum to at
// most its channel count, so its digits, commas and brackets take at most
// 5 bytes a cell; at 8 bytes a cell the bound leaves the rest for the
// frame's other fields. A batch's params travel in one job frame too, so
// checkBatch refuses a blob that would not fit, and runJob makes a result
// that would not fit the job's error. The constant is spelled out because
// workload depends on engine.
const maxFrameBytes = 8 << 22

// frameOverhead bounds the bytes of a job or result frame besides its task
// name, params, value and error text: its keys, its type and two 64-bit
// integers.
const frameOverhead = 256

// wireMsg is the single frame type of the worker protocol; fields are
// populated according to Type.
//
// Seed deliberately has no omitempty: a job's seed is semantically
// load-bearing for every value including zero (JobSeed can return 0), and
// eliding it would make "seed absent" and "seed 0" indistinguishable to a
// version-skewed peer. The frame bytes are pinned in protocol tests.
type wireMsg struct {
	Type string `json:"type"`
	// job and result
	Job int `json:"job"`
	// job. Params rides only on the first job frame of a batch on a
	// connection (protocol v2); an absent Params means "reuse the cached
	// params".
	Task   string          `json:"task,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Seed   uint64          `json:"seed"`
	// result (Error doubles as the rejection reason of a hello reply)
	Value json.RawMessage `json:"value,omitempty"`
	Error string          `json:"error,omitempty"`
	// hello and register
	Version int      `json:"version,omitempty"`
	Tasks   []string `json:"tasks,omitempty"`
	// register: shared-secret auth. Purely additive: both ends default to
	// no token, and a mismatch is a loud handshake rejection.
	Token string `json:"token,omitempty"`
	// hello reply to a register: the heartbeat cadence the coordinator
	// expects, in milliseconds (0 leaves the worker's default in place).
	HeartbeatMillis int `json:"heartbeat_ms,omitempty"`
}

// RunWorkerIfRequested turns the current process into an engine worker when
// WorkerEnv is set: it joins the coordinator at that address once —
// register, then serve jobs until the coordinator closes the connection —
// and exits, with status 0 after a session the coordinator ended and 1
// when the join fails (nothing listening, a rejected register) or the
// session breaks. It never redials, so a shard does not outlive its
// coordinator's socket. Call it first thing in main (after task
// registrations, which conventionally live in init functions) — it does
// nothing and returns immediately in a normal run.
func RunWorkerIfRequested() {
	addr := os.Getenv(WorkerEnv)
	if addr == "" {
		return
	}
	network, address, err := splitWorkerAddr(addr)
	if err == nil {
		err = joinOnce(network, address, &joinConfig{heartbeat: defaultHeartbeat})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "engine worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// nextJob reads the next job frame into m for the serving loop. The end
// of the stream, or a connection closed under the reader, is io.EOF; a
// frame that does not decode, or is not a job, ends the session with an
// error.
func nextJob(rd *ndjson.Reader, m *wireMsg) error {
	if err := rd.Decode(m); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return io.EOF
		}
		return fmt.Errorf("decoding job frame: %w", err)
	}
	if m.Type != wireJob {
		return fmt.Errorf("unexpected frame %q, want %q", m.Type, wireJob)
	}
	return nil
}
