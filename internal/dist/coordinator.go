package dist

import (
	"fmt"
	"net"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/workload"
)

// Stats summarises a protocol run.
type Stats struct {
	// Converged is true when a full token round passed with no device
	// changing its row (rather than the round cap striking).
	Converged bool
	// Rounds counts executed token rounds, including the final quiet one.
	Rounds int
	// Moves counts accepted row changes across the run.
	Moves int
	// Messages counts protocol frames in both directions.
	Messages int
}

// Coordinator sequences the distributed token ring for one game.
type Coordinator struct {
	g         *core.Game
	radios    int // the common budget every hello carries and every row obeys
	maxRounds int
	timeout   time.Duration
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithMaxRounds caps token-ring sweeps (default 100).
func WithMaxRounds(n int) CoordinatorOption {
	return func(c *Coordinator) { c.maxRounds = n }
}

// WithTimeout bounds each protocol message wait on a connection (default
// 10s; <= 0 waits forever). It applies to Coordinator.Run; RunLocal calls
// its agents directly and never waits on a message.
func WithTimeout(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.timeout = d }
}

// NewCoordinator builds a protocol coordinator for g. The protocol's hello
// frame carries one radio budget for every device, so g must give every
// user the same budget.
func NewCoordinator(g *core.Game, opts ...CoordinatorOption) (*Coordinator, error) {
	if g == nil {
		return nil, fmt.Errorf("dist: nil game")
	}
	radios := g.Radios()
	if radios == 0 {
		return nil, fmt.Errorf("dist: the protocol needs a common radio budget; budgets differ")
	}
	co := &Coordinator{g: g, radios: radios, maxRounds: 100, timeout: 10 * time.Second}
	for _, opt := range opts {
		opt(co)
	}
	if co.maxRounds < 1 {
		return nil, fmt.Errorf("dist: maxRounds = %d, want >= 1", co.maxRounds)
	}
	return co, nil
}

// Run drives the protocol over one connection per user (conns[i] talks to
// user i's agent) and returns the agreed allocation.
func (co *Coordinator) Run(conns []net.Conn) (*core.Alloc, Stats, error) {
	var stats Stats
	if len(conns) != co.g.Users() {
		return nil, stats, fmt.Errorf("dist: %d connections for %d users", len(conns), co.g.Users())
	}
	// The frame bound (maxFrameBytes) holds for games within MaxCells.
	if err := workload.CheckCells(co.g.Users(), co.g.Channels()); err != nil {
		return nil, stats, fmt.Errorf("dist: %w", err)
	}
	peers := make([]link, len(conns))
	for i, conn := range conns {
		if conn == nil {
			return nil, stats, fmt.Errorf("dist: nil connection for user %d", i)
		}
		peers[i] = newPeer(conn, co.timeout)
	}
	return co.run(peers)
}

// run drives the protocol over one link per user: hellos, token rounds
// until a quiet round or the round cap, then the final broadcast and its
// acknowledgements. Every frame it sends is one reused message, and each
// token's loads and row are filled in place, so a quiet token visit
// allocates nothing here; a link must copy or encode a frame before send
// returns.
func (co *Coordinator) run(peers []link) (*core.Alloc, Stats, error) {
	var stats Stats
	C := co.g.Channels()
	m := &message{}
	for i, p := range peers {
		*m = message{Type: msgHello, User: i, Channels: C, Radios: co.radios}
		if err := p.send(m); err != nil {
			return nil, stats, err
		}
		stats.Messages++
	}

	a := co.g.NewEmptyAlloc()
	ext, current := make([]int, C), make([]int, C)
	for round := 0; round < co.maxRounds; round++ {
		changed := false
		for i, p := range peers {
			for c := range current {
				current[c] = a.Radios(i, c)
				ext[c] = a.Load(c) - current[c]
			}
			*m = message{Type: msgToken, Loads: ext, Row: current}
			if err := p.send(m); err != nil {
				return nil, stats, err
			}
			stats.Messages++
			reply, err := p.recv(msgRow)
			if err != nil {
				return nil, stats, err
			}
			stats.Messages++
			if err := checkRow(reply.Row, C, co.radios); err != nil {
				return nil, stats, fmt.Errorf("dist: user %d: %w", i, err)
			}
			if !equalRows(reply.Row, current) {
				if err := a.SetRow(i, reply.Row); err != nil {
					return nil, stats, fmt.Errorf("dist: applying row for user %d: %w", i, err)
				}
				stats.Moves++
				changed = true
			}
		}
		stats.Rounds++
		if !changed {
			stats.Converged = true
			break
		}
	}

	if err := co.g.CheckAlloc(a); err != nil {
		return nil, stats, err
	}
	ws := core.Workspaces.Get()
	ne, err := co.g.IsNashEquilibriumWith(ws, a)
	core.Workspaces.Put(ws)
	if err != nil {
		return nil, stats, err
	}
	*m = message{
		Type:      msgDone,
		Matrix:    a.Matrix(),
		NE:        ne,
		Converged: stats.Converged,
		Rounds:    stats.Rounds,
		Moves:     stats.Moves,
	}
	for _, p := range peers {
		if err := p.send(m); err != nil {
			return nil, stats, err
		}
		stats.Messages++
	}
	for i, p := range peers {
		if _, err := p.recv(msgAck); err != nil {
			return nil, stats, fmt.Errorf("dist: user %d: %w", i, err)
		}
		stats.Messages++
	}
	return a, stats, nil
}

func equalRows(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
