// Package live implements the long-lived allocation service: a mutable
// channel-allocation game (core.LiveGame) behind a newline-delimited JSON
// protocol. Clients stream churn events — users joining, leaving, changing
// radio budgets — and the server answers every event with the warm-started
// re-equilibration's outcome (dynamics.Requilibrate): the new allocation
// summary plus convergence statistics.
//
// The wire format is one JSON object per line (NDJSON), each ended by
// exactly one newline: the framing of the engine's worker protocol and the
// distributed protocol too. All three read frames with the one shared line
// reader, internal/ndjson, each at its own byte bound; the server reads
// requests at MaxFrameBytes. A request split across lines, or two on one
// line, is a bad frame; blank lines are skipped. The server speaks first
// with a hello frame carrying ProtocolVersion; a client that sees a
// version it does not know must disconnect. All frames are deterministic
// functions of the event stream and the server configuration — worker
// count never shows in the bytes, so a seeded trace has one golden
// transcript.
package live

// ProtocolVersion identifies the frame schema. Version 1: hello frame
// {type, version, channels, rate}; requests {op, id?, budget?} with ops
// join/leave/budget/stats/bye; responses {type, error?, update?, stats?}.
const ProtocolVersion = 1

// MaxFrameBytes bounds one request line, newline excluded. A request is a
// few dozen bytes; the bound only stops a client from making the server
// buffer without end, and a line past it ends the conversation.
const MaxFrameBytes = 1 << 20

// Hello is the server's first frame on every connection.
type Hello struct {
	Type     string `json:"type"` // always "hello"
	Version  int    `json:"version"`
	Channels int    `json:"channels"`
	Rate     string `json:"rate"`
}

// Request is one client frame. Ops:
//
//	join   — admit a user with Budget radios; the update echoes the
//	         server-assigned id (sequential from 1, never reused)
//	leave  — remove user ID
//	budget — set user ID's radio budget to Budget
//	stats  — report cumulative session statistics (no mutation)
//	bye    — polite shutdown; the server answers with a bye frame
//
// ID and Budget are zero exactly when they are not meaningful for the op
// (valid ids start at 1, valid budgets at 1), so omitempty cannot hide a
// load-bearing value.
type Request struct {
	Op     string `json:"op"`
	ID     int64  `json:"id,omitempty"`
	Budget int    `json:"budget,omitempty"`
}

// Response is one server frame. Exactly one of Error, Update, Stats is
// set for types error/update/stats; bye frames carry the type alone.
type Response struct {
	Type   string  `json:"type"` // "update" | "stats" | "error" | "bye"
	Error  string  `json:"error,omitempty"`
	Update *Update `json:"update,omitempty"`
	Stats  *Stats  `json:"stats,omitempty"`
}

// Update reports the re-equilibrated state after one accepted mutation.
// Every numeric field is load-bearing at zero (an empty game has zero
// users, a no-op budget change zero rounds), so nothing is omitempty.
type Update struct {
	// Event is the 1-based count of accepted mutations this session.
	Event int `json:"event"`
	// Op echoes the request op; ID is the affected user (the assigned id
	// for joins).
	Op string `json:"op"`
	ID int64  `json:"id"`
	// Users, Radios and Loads summarise the re-equilibrated allocation.
	Users  int   `json:"users"`
	Radios int   `json:"radios"`
	Loads  []int `json:"loads"`
	// Welfare is the allocation's total utility, Eq. 3 summed over users.
	Welfare float64 `json:"welfare"`
	// Convergence statistics of the warm-started re-equilibration.
	Rounds      int  `json:"rounds"`
	Moves       int  `json:"moves"`
	DPCalls     int  `json:"dp_calls"`
	WarmSkipped int  `json:"warm_skipped"`
	Converged   bool `json:"converged"`
	// Verified is true when the server re-proved the terminal allocation
	// is a Nash equilibrium with the exact oracle (config Verify).
	Verified bool `json:"verified"`
}

// Stats aggregates a session. Served on request op "stats".
type Stats struct {
	Events      int `json:"events"`
	Joins       int `json:"joins"`
	Leaves      int `json:"leaves"`
	BudgetOps   int `json:"budget_ops"`
	Moves       int `json:"moves"`
	DPCalls     int `json:"dp_calls"`
	WarmSkipped int `json:"warm_skipped"`
	Users       int `json:"users"`
	Radios      int `json:"radios"`
	// Obs embeds a flattened snapshot of the process-global metrics
	// registry when the server runs with Config.EmitObs (additive, off by
	// default: pinned golden transcripts never carry it). Counters and
	// gauges map name → value; histograms flatten to name_count/name_sum.
	// Go marshals the map key-sorted, so the field itself is diffable.
	Obs map[string]int64 `json:"obs,omitempty"`
}
