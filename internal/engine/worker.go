package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// WorkerEnv is the environment marker that switches a re-exec'd binary into
// engine-worker mode: when set (to any non-empty value), the process serves
// task jobs over stdin/stdout instead of running its normal main. Host
// programs opt in by calling RunWorkerIfRequested before doing anything
// else; the Process backend sets the marker when it spawns shards.
const WorkerEnv = "CHANALLOC_ENGINE_WORKER"

// Wire frame kinds of the coordinator<->worker protocol. Every frame is one
// JSON object on one line (the newline-delimited JSON idiom of
// internal/dist); unknown fields are ignored so the protocol can grow.
const (
	wireHello     = "hello"     // both directions: version/task handshake (socket transport)
	wireJob       = "job"       // coordinator -> worker: one task job to run
	wireResult    = "result"    // worker -> coordinator: the job's value or error
	wireRegister  = "register"  // worker -> coordinator: cluster membership registration
	wireHeartbeat = "heartbeat" // worker -> coordinator: cluster liveness beacon
)

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
	// job (Task doubles as the required-task announcement of a hello).
	// Params rides only on the first job frame of a batch on a connection
	// (protocol v2); an absent Params means "reuse the cached params".
	Task   string          `json:"task,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Seed   uint64          `json:"seed"`
	// result (Error doubles as the rejection reason of a hello reply)
	Value json.RawMessage `json:"value,omitempty"`
	Error string          `json:"error,omitempty"`
	// hello and register
	Version int      `json:"version,omitempty"`
	Tasks   []string `json:"tasks,omitempty"`
	// hello and register: shared-secret auth. Purely additive: both ends
	// default to no token, and a mismatch is a loud handshake rejection.
	Token string `json:"token,omitempty"`
	// hello reply to a register: the heartbeat cadence the coordinator
	// expects, in milliseconds (0 leaves the worker's default in place).
	HeartbeatMillis int `json:"heartbeat_ms,omitempty"`
}

// RunWorkerIfRequested turns the current process into an engine worker when
// WorkerEnv is set: it serves jobs on stdin/stdout until the coordinator
// closes the pipe, then exits. Call it first thing in main (after task
// registrations, which conventionally live in init functions) — it does
// nothing and returns immediately in a normal run.
func RunWorkerIfRequested() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "engine worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeWorker runs the worker end of the protocol: decode one job frame,
// run the named registered task with a PRNG seeded by the frame's seed
// (derived by the coordinator as JobSeed(root, job)), reply with the
// JSON-encoded value or the error text, repeat until EOF. The batch's params
// ride only on the first job frame of a batch on a connection; the session
// decodes them once and reuses the value for the params-less frames that
// follow (see workerSession). Job failures are replies, not transport
// failures — the worker keeps serving, which is what lets a batch run every
// job even when some fail, exactly like the in-process pool.
func ServeWorker(r io.Reader, w io.Writer) error {
	return serveWorker(json.NewDecoder(r), json.NewEncoder(w))
}

// serveWorker is ServeWorker with the framing already built — the socket
// listener hands in the handshake's decoder so bytes it buffered ahead are
// not lost.
func serveWorker(dec *json.Decoder, enc *json.Encoder) error {
	var session workerSession
	for {
		var m wireMsg
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("decoding job frame: %w", err)
		}
		if m.Type != wireJob {
			return fmt.Errorf("unexpected frame %q, want %q", m.Type, wireJob)
		}
		if err := enc.Encode(session.execute(&m)); err != nil {
			return fmt.Errorf("sending result for job %d: %w", m.Job, err)
		}
	}
}
