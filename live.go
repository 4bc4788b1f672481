package chanalloc

import (
	"io"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/live"
)

// Live-game types, re-exported: the mutable form of the allocation game
// (users join, leave, renegotiate budgets) plus the warm-started
// re-equilibration and the NDJSON service around them.
type (
	// LiveGame is a mutable game with per-user budgets whose derived
	// state — the dense allocation, the (budget, row) class index and the
	// rate view — stays consistent across mutations; Frozen hands out the
	// live Game itself, valid until the next mutation.
	LiveGame = core.LiveGame
	// UserID is the stable identity of a live-game participant
	// (sequential from 1, never reused).
	UserID = core.UserID
	// ReqResult reports a warm-started re-equilibration.
	ReqResult = dynamics.ReqResult
	// LiveConfig parameterises a live allocation server.
	LiveConfig = live.Config
	// LiveServer speaks the live NDJSON protocol over a reader/writer.
	LiveServer = live.Server
	// LiveRequest and LiveUpdate are the protocol's request and
	// per-event response payloads.
	LiveRequest = live.Request
	LiveUpdate  = live.Update
	// ChurnSpec parameterises a synthetic churn trace.
	ChurnSpec = live.ChurnSpec
)

// LiveProtocolVersion identifies the live NDJSON frame schema.
const LiveProtocolVersion = live.ProtocolVersion

// NewLiveGame returns an empty mutable game over channels and rate.
func NewLiveGame(channels int, rate RateFunc) (*LiveGame, error) {
	return core.NewLiveGame(channels, rate)
}

// Requilibrate restores a live game to a Nash equilibrium after churn,
// warm-starting best-response dynamics from the previous equilibrium:
// quiet verdicts of users provably unaffected by the churn carry over, so
// the run issues no more — usually strictly fewer — best-response DP calls
// than a cold start, while ending at the identical allocation.
func Requilibrate(lg *LiveGame, opts ...DynamicsOption) (ReqResult, error) {
	return dynamics.Requilibrate(lg, opts...)
}

// NewLiveServer builds a live allocation server with an empty game.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) { return live.NewServer(cfg) }

// ServeLive runs one NDJSON conversation on the given transport.
func ServeLive(srv *LiveServer, r io.Reader, w io.Writer) error { return srv.Serve(r, w) }

// DefaultChurnSpec fills a churn spec's free parameters: budgets uniform
// over [1, min(channels, 4)], unit arrival rate, steady population near
// the initial one.
func DefaultChurnSpec(channels, initial, events int, seed uint64) ChurnSpec {
	return live.DefaultChurnSpec(channels, initial, events, seed)
}

// GenerateChurnTrace renders a churn spec as a deterministic request
// stream whose leave/budget events name the ids a serving game assigns.
func GenerateChurnTrace(spec ChurnSpec) ([]LiveRequest, error) { return live.GenerateTrace(spec) }

// BorrowWorkspace takes a DP workspace from the shared pool; return it
// with ReturnWorkspace when done. Pair with WithDynamicsWorkspace to make
// steady-state convergence runs allocation-free.
func BorrowWorkspace() *Workspace { return core.Workspaces.Get() }

// ReturnWorkspace gives a borrowed workspace back to the shared pool.
func ReturnWorkspace(ws *Workspace) { core.Workspaces.Put(ws) }
