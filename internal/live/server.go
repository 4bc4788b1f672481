package live

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/ndjson"
	"github.com/multiradio/chanalloc/internal/obs"
	"github.com/multiradio/chanalloc/internal/ratefn"
	"github.com/multiradio/chanalloc/internal/workload"
)

// Config parameterises a Server.
type Config struct {
	// Channels is |C|; Rate the common rate function; RateName its
	// display form echoed in the hello frame.
	Channels int
	Rate     ratefn.Func
	RateName string
	// Workers bounds the goroutines that run the Nash-equilibrium
	// verifier's DP folds, which only the class representatives its
	// exchange certificate could not certify need (see verifyAlloc);
	// < 1 means runtime.NumCPU(). The worker count NEVER affects output
	// bytes — verification is an AND-reduce over per-user verdicts.
	Workers int
	// Verify re-proves every re-equilibrated allocation with the exact
	// oracle and reports the verdict in each update frame.
	Verify bool
	// Eps and MaxRounds override the dynamics defaults when positive.
	Eps       float64
	MaxRounds int
	// Totals, when non-nil, aggregates session statistics across every
	// server sharing it (a listening daemon building one server per
	// connection); the "stats" op then reports the lifetime totals. Nil
	// keeps per-server stats — the byte-pinned transcript behaviour.
	Totals *Totals
	// EmitObs embeds a flattened snapshot of the process-global metrics
	// registry in each stats frame. Off by default so pinned transcripts
	// never carry runtime-dependent bytes.
	EmitObs bool
}

// Server owns one live game and speaks the NDJSON protocol over any
// reader/writer pair. It is single-conversation: events are serialised,
// parallelism lives inside verification (and the dynamics workspace is
// pooled). Not safe for concurrent Serve calls.
type Server struct {
	lg      *core.LiveGame
	cfg     Config
	dynOpts []dynamics.Option
	stats   Stats

	// writeMu serialises frame writes between Serve's loop and Interrupt;
	// enc is the live conversation's encoder (nil outside Serve). Once
	// interrupted is set, Serve writes nothing more — the bye Interrupt
	// sent is the conversation's last frame.
	writeMu     sync.Mutex
	enc         *json.Encoder
	interrupted bool
}

// NewServer builds a server with an empty live game.
func NewServer(cfg Config) (*Server, error) {
	lg, err := core.NewLiveGame(cfg.Channels, cfg.Rate)
	if err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.RateName == "" {
		cfg.RateName = cfg.Rate.Name()
	}
	var opts []dynamics.Option
	if cfg.Eps > 0 {
		opts = append(opts, dynamics.WithEps(cfg.Eps))
	}
	if cfg.MaxRounds > 0 {
		opts = append(opts, dynamics.WithMaxRounds(cfg.MaxRounds))
	}
	return &Server{lg: lg, cfg: cfg, dynOpts: opts}, nil
}

// Game exposes the underlying live game (read-only for callers).
func (s *Server) Game() *core.LiveGame { return s.lg }

// Stats returns a copy of the cumulative session statistics — this
// server's own, or the shared lifetime totals when Config.Totals is set.
// Users and Radios always describe this server's current game.
func (s *Server) Stats() Stats {
	out := s.stats
	if s.cfg.Totals != nil {
		out = s.cfg.Totals.Snapshot()
	}
	out.Users = s.lg.Users()
	if a := s.lg.Alloc(); a != nil {
		out.Radios = a.TotalRadios()
	}
	if s.cfg.EmitObs {
		out.Obs = obs.Flat(obs.Snapshot())
	}
	return out
}

// Serve runs one NDJSON conversation: hello first, then one response line
// per request line until EOF, a bye request, a transport error, a request
// line past MaxFrameBytes, or an Interrupt. Invalid requests get error
// frames and the conversation continues — a malformed line is a client bug
// worth reporting, not a reason to drop a live allocation service.
func (s *Server) Serve(r io.Reader, w io.Writer) error {
	enc := json.NewEncoder(frameCounter{w})
	s.writeMu.Lock()
	s.enc = enc
	s.writeMu.Unlock()
	defer func() {
		s.writeMu.Lock()
		s.enc = nil
		s.writeMu.Unlock()
	}()
	if err := s.send(Hello{
		Type:     "hello",
		Version:  ProtocolVersion,
		Channels: s.cfg.Channels,
		Rate:     s.cfg.RateName,
	}); err != nil {
		if s.Interrupted() {
			return nil
		}
		return fmt.Errorf("live: writing hello: %w", err)
	}
	rd := ndjson.NewReader(r, MaxFrameBytes)
	for {
		line, err := rd.Next()
		if s.Interrupted() {
			return nil
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			if err := s.send(Response{Type: "error", Error: fmt.Sprintf("bad frame: %v", err)}); err != nil {
				if s.Interrupted() {
					return nil
				}
				return err
			}
			continue
		}
		if req.Op == "bye" {
			if err := s.send(Response{Type: "bye"}); err != nil && !s.Interrupted() {
				return err
			}
			return nil
		}
		resp := s.Apply(req)
		if err := s.send(resp); err != nil {
			if s.Interrupted() {
				return nil
			}
			return err
		}
	}
}

// send writes one frame under the write mutex. Once the server is
// interrupted nothing more is written — the interrupt's bye frame stays
// the conversation's last — and errSendInterrupted is returned so callers
// can tell the suppressed write from a transport failure.
func (s *Server) send(frame any) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.interrupted {
		return errSendInterrupted
	}
	return s.enc.Encode(frame)
}

var errSendInterrupted = fmt.Errorf("live: conversation interrupted")

// Interrupt ends the conversation from outside Serve — the graceful-
// shutdown path of a listening daemon: a bye frame is sent (best effort,
// serialised against Serve's own writes) and Serve writes nothing more,
// returning nil as soon as its reader unblocks (typically when the caller
// closes the connection after the drain grace). Safe to call at any time,
// from any goroutine, more than once.
func (s *Server) Interrupt() {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.interrupted {
		return
	}
	s.interrupted = true
	if s.enc != nil {
		_ = s.enc.Encode(Response{Type: "bye"})
	}
}

// Interrupted reports whether Interrupt has been called.
func (s *Server) Interrupted() bool {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.interrupted
}

// Apply executes one request against the live game and builds its
// response frame. Mutation ops re-equilibrate before answering, so every
// update frame describes a settled allocation.
func (s *Server) Apply(req Request) Response {
	start := time.Now()
	var id core.UserID
	delta := Stats{Events: 1}
	switch req.Op {
	case "stats":
		mStatsOps.Inc()
		st := s.Stats()
		return Response{Type: "stats", Stats: &st}
	case "join":
		// The bound the scenario and churn grammars apply: one more user
		// must keep users·channels within workload.MaxCells.
		if err := workload.CheckCells(s.lg.Users()+1, s.cfg.Channels); err != nil {
			mErrors.Inc()
			return Response{Type: "error", Error: fmt.Sprintf("join: %v", err)}
		}
		jid, err := s.lg.Join(req.Budget)
		if err != nil {
			mErrors.Inc()
			return Response{Type: "error", Error: err.Error()}
		}
		id = jid
		s.stats.Joins++
		delta.Joins = 1
		mJoins.Inc()
	case "leave":
		if err := s.lg.Leave(core.UserID(req.ID)); err != nil {
			mErrors.Inc()
			return Response{Type: "error", Error: err.Error()}
		}
		id = core.UserID(req.ID)
		s.stats.Leaves++
		delta.Leaves = 1
		mLeaves.Inc()
	case "budget":
		if err := s.lg.SetBudget(core.UserID(req.ID), req.Budget); err != nil {
			mErrors.Inc()
			return Response{Type: "error", Error: err.Error()}
		}
		id = core.UserID(req.ID)
		s.stats.BudgetOps++
		delta.BudgetOps = 1
		mBudgetOps.Inc()
	default:
		mErrors.Inc()
		return Response{Type: "error", Error: fmt.Sprintf("unknown op %q", req.Op)}
	}

	ws := core.Workspaces.Get()
	opts := append(append([]dynamics.Option(nil), s.dynOpts...), dynamics.WithWorkspace(ws))
	res, err := dynamics.Requilibrate(s.lg, opts...)
	core.Workspaces.Put(ws)
	if err != nil {
		mErrors.Inc()
		return Response{Type: "error", Error: fmt.Sprintf("requilibrate: %v", err)}
	}
	s.stats.Events++
	s.stats.Moves += res.Moves
	s.stats.DPCalls += res.DPCalls
	s.stats.WarmSkipped += res.WarmSkipped
	delta.Moves = res.Moves
	delta.DPCalls = res.DPCalls
	delta.WarmSkipped = res.WarmSkipped
	s.cfg.Totals.add(delta)
	mEvents.Inc()
	mConvRounds.Observe(int64(res.Rounds))
	obs.Emit("churn", req.Op, int64(s.stats.Events), int64(id), 0)

	u := &Update{
		Event:       s.stats.Events,
		Op:          req.Op,
		ID:          int64(id),
		Users:       s.lg.Users(),
		Rounds:      res.Rounds,
		Moves:       res.Moves,
		DPCalls:     res.DPCalls,
		WarmSkipped: res.WarmSkipped,
		Converged:   res.Converged,
	}
	if a := s.lg.Alloc(); a != nil {
		u.Loads = a.Loads()
		u.Radios = a.TotalRadios()
		u.Welfare = s.lg.Frozen().Welfare(a)
		if s.cfg.Verify {
			u.Verified = s.verifyNE()
		}
	} else {
		u.Loads = make([]int, s.cfg.Channels)
		// The empty allocation is trivially an equilibrium.
		u.Verified = s.cfg.Verify
	}
	mEventLat.Observe(int64(time.Since(start)))
	return Response{Type: "update", Update: u}
}

// verifyNE re-proves the current allocation is a Nash equilibrium with the
// exact best-response oracle; see verifyAlloc.
func (s *Server) verifyNE() bool {
	g := s.lg.Frozen()
	if g == nil {
		return true
	}
	return verifyAlloc(g, s.lg.Alloc(), s.lg.Classes(), s.cfg.Workers)
}

// verifyAlloc decides whether a is a Nash equilibrium of g with the exact
// per-user deviation test. Users with the same budget and the same row face
// the same external loads and have the same utility, so their verdicts are
// bit-identical: cls, a's (budget, row) class index, groups them, and one
// serial stamp pass over the users' class ids picks each class's first
// user as its representative. The test runs in two phases:
//
//   - the same serial pass runs the exchange certificate on each
//     representative (Game.CertifiedQuiet), tens of nanoseconds each, in
//     one workspace that builds a's channel summary once;
//   - only the representatives it could not certify run the deviation
//     test with its DP fold, sharded over min(workers, failed) goroutines,
//     each with its own pooled workspace. An event whose representatives
//     are all certified starts no goroutine.
//
// A certified quiet verdict implies the fold is quiet (see the certificate
// in internal/core), so the verdict is the AND over representatives, which
// equals the AND over all users, at any worker count; the early exit on a
// found deviation only saves time. Only the grouping is shared with the
// dynamics that produced a: every representative's verdict is computed
// here.
func verifyAlloc(g *core.Game, a *core.Alloc, cls *core.Classes, workers int) bool {
	ws := core.Workspaces.Get()
	defer core.Workspaces.Put(ws)
	users, size := g.Users(), cls.Size()
	scratch := ws.UserInts(size + users)
	seen, failed := scratch[:size:size], scratch[size:size]
	clear(seen)
	for i := 0; i < users; i++ {
		if c := cls.Of(i); seen[c] == 0 {
			seen[c] = 1
			if !g.CertifiedQuiet(ws, a, i, core.DefaultEps) {
				failed = append(failed, i)
			}
		}
	}
	n := len(failed)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return verifyUsers(g, a, ws, failed, nil)
	}
	var refuted atomic.Bool
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(users []int) {
			defer wg.Done()
			ws := core.Workspaces.Get()
			defer core.Workspaces.Put(ws)
			if !verifyUsers(g, a, ws, users, &refuted) {
				refuted.Store(true)
			}
		}(failed[lo:hi])
	}
	wg.Wait()
	return !refuted.Load()
}

// verifyUsers checks the listed users have no improving deviation at the
// oracle tolerance. A non-nil refuted flag allows cross-shard early exit.
func verifyUsers(g *core.Game, a *core.Alloc, ws *core.Workspace, users []int, refuted *atomic.Bool) bool {
	for _, i := range users {
		if refuted != nil && refuted.Load() {
			return true // some other shard already decided; verdict unaffected
		}
		if _, _, improves, err := g.DeviationInto(ws, a, i, core.DefaultEps); err != nil || improves {
			return false
		}
	}
	return true
}
