package dist

import (
	"fmt"
	"net"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
)

// AgentResult is one device's view of the protocol outcome, taken from the
// coordinator's final broadcast.
type AgentResult struct {
	// User is the identity the coordinator assigned in the hello frame.
	User int
	// Matrix is the agreed strategy matrix.
	Matrix [][]int
	// IsNE reports the coordinator's equilibrium verdict.
	IsNE bool
	// Converged reports whether the ring went quiet before the round cap.
	Converged bool
	// Rounds is the number of token rounds the protocol ran.
	Rounds int
}

// agent is the device end of the protocol as a state machine: it takes one
// coordinator frame at a time and returns its reply. RunAgent feeds it from
// a connection and RunLocal by direct call, so both run the same checks.
//
// The agent keeps nothing of a frame but what it copies out: the hello's
// dimensions by value and the done matrix into its own slab. Its reply is
// its own reused frame, valid until the next handle call; a row reply
// carries the policy's slice, which the carrier copies or encodes before
// the next frame arrives.
type agent struct {
	policy   Policy
	channels int // from the hello; zero until it arrives
	radios   int // from the hello
	done     bool
	res      AgentResult
	out      message // the reply frame, reused
}

// handle checks one coordinator frame against the hello and the protocol
// order and returns the reply frame: none for hello, a row for a token and
// an ack for done. A frame that does not fit is refused with an error.
func (ag *agent) handle(m *message) (*message, error) {
	if ag.done {
		return nil, fmt.Errorf("dist: frame %q after done", m.Type)
	}
	if ag.channels == 0 {
		if m.Type != msgHello {
			return nil, fmt.Errorf("dist: got %q, want %q", m.Type, msgHello)
		}
		if err := checkHello(m.Channels, m.Radios); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		ag.channels, ag.radios = m.Channels, m.Radios
		ag.res.User = m.User
		return nil, nil
	}
	switch m.Type {
	case msgToken:
		if err := ag.checkToken(m); err != nil {
			return nil, fmt.Errorf("dist: token for user %d: %w", ag.res.User, err)
		}
		row, err := ag.policy.Propose(m.Loads, m.Row, ag.radios)
		if err != nil {
			return nil, fmt.Errorf("dist: policy for user %d: %w", ag.res.User, err)
		}
		ag.out = message{Type: msgRow, Row: row}
		return &ag.out, nil
	case msgDone:
		for u, row := range m.Matrix {
			if len(row) != ag.channels {
				return nil, fmt.Errorf("dist: done matrix row %d has %d channels, want %d",
					u, len(row), ag.channels)
			}
		}
		ag.done = true
		ag.res.Matrix = copyMatrix(m.Matrix)
		ag.res.IsNE = m.NE
		ag.res.Converged = m.Converged
		ag.res.Rounds = m.Rounds
		ag.out = message{Type: msgAck}
		return &ag.out, nil
	default:
		return nil, fmt.Errorf("dist: unexpected frame %q", m.Type)
	}
}

// copyMatrix deep-copies a matrix into one flat slab: two allocations,
// whatever the row count. An empty matrix gives nil, as on the wire.
func copyMatrix(m [][]int) [][]int {
	if len(m) == 0 {
		return nil
	}
	n := 0
	for _, row := range m {
		n += len(row)
	}
	slab := make([]int, n)
	out := make([][]int, len(m))
	for i, row := range m {
		k := copy(slab, row)
		out[i], slab = slab[:k:k], slab[k:]
	}
	return out
}

// checkToken validates a token's loads and current row against the hello.
func (ag *agent) checkToken(m *message) error {
	if len(m.Loads) != ag.channels {
		return fmt.Errorf("%d loads, want %d", len(m.Loads), ag.channels)
	}
	for c, v := range m.Loads {
		if v < 0 {
			return fmt.Errorf("negative load %d on channel %d", v, c)
		}
	}
	return checkRow(m.Row, ag.channels, ag.radios)
}

// RunAgent drives one device end of the protocol over conn until the
// coordinator broadcasts completion. timeout bounds each message exchange
// (<= 0 waits forever).
func RunAgent(conn net.Conn, policy Policy, timeout time.Duration) (AgentResult, error) {
	if policy == nil {
		return AgentResult{}, fmt.Errorf("dist: nil policy")
	}
	p := newPeer(conn, timeout)
	ag := agent{policy: policy}
	for !ag.done {
		awaiting := msgToken
		if ag.channels == 0 {
			awaiting = msgHello
		}
		m, err := p.read(awaiting)
		if err != nil {
			return ag.res, err
		}
		reply, err := ag.handle(m)
		if err != nil {
			return ag.res, err
		}
		if reply != nil {
			if err := p.send(reply); err != nil {
				return ag.res, err
			}
		}
	}
	return ag.res, nil
}

// localLink carries frames to an in-process agent by direct call. It copies
// each frame's loads and row into an inbound message it owns, and each
// reply's row into a reply message it owns, reusing both buffers from frame
// to frame. So neither side can alias the other's slices: a policy that
// keeps or writes its arguments touches only the link's inbound buffer,
// which the next frame overwrites, and the coordinator reads only the
// link's reply copy. The done matrix, which no policy sees, is left to the
// agent, which copies it before handle returns.
type localLink struct {
	ag    agent
	in    message // the frame being handled
	out   message // the agent's reply
	ready bool    // out holds a reply not yet received
}

func (l *localLink) send(m *message) error {
	l.ready = false
	loads, row := l.in.Loads[:0], l.in.Row[:0]
	l.in = *m
	l.in.Loads, l.in.Row = append(loads, m.Loads...), append(row, m.Row...)
	reply, err := l.ag.handle(&l.in)
	if err != nil || reply == nil {
		return err
	}
	replyRow := l.out.Row[:0]
	l.out = *reply
	l.out.Row = append(replyRow, reply.Row...)
	l.ready = true
	return nil
}

func (l *localLink) recv(wantType string) (*message, error) {
	if !l.ready {
		return nil, fmt.Errorf("dist: awaiting %s: agent sent nothing", wantType)
	}
	l.ready = false
	if l.out.Type != wantType {
		return nil, fmt.Errorf("dist: got %q, want %q", l.out.Type, wantType)
	}
	return &l.out, nil
}

// LocalResult bundles the coordinator and agent views of an in-process run.
type LocalResult struct {
	// Alloc is the agreed allocation.
	Alloc *core.Alloc
	// Stats is the coordinator's protocol summary.
	Stats Stats
	// Agents holds each device's view, indexed by user.
	Agents []AgentResult
}

// RunLocal runs the protocol to completion with one in-process agent per
// user. The coordinator hands each agent its frames by direct call, so the
// ring pays for the agents' checks and policies but for no codec, pipe or
// timer; the frames and the outcome are those of the same ring over
// connections. Each link copies the frames it carries into buffers it
// reuses, and each side copies only what it keeps, so a quiet token visit
// allocates nothing.
func RunLocal(g *core.Game, policies []Policy, opts ...CoordinatorOption) (*LocalResult, error) {
	if g == nil {
		return nil, fmt.Errorf("dist: nil game")
	}
	if len(policies) != g.Users() {
		return nil, fmt.Errorf("dist: %d policies for %d users", len(policies), g.Users())
	}
	co, err := NewCoordinator(g, opts...)
	if err != nil {
		return nil, err
	}
	links := make([]localLink, len(policies))
	peers := make([]link, len(policies))
	for i, policy := range policies {
		if policy == nil {
			return nil, fmt.Errorf("dist: nil policy for user %d", i)
		}
		links[i].ag.policy = policy
		peers[i] = &links[i]
	}
	a, stats, err := co.run(peers)
	if err != nil {
		return nil, err
	}
	agents := make([]AgentResult, len(links))
	for i := range links {
		agents[i] = links[i].ag.res
	}
	return &LocalResult{Alloc: a, Stats: stats, Agents: agents}, nil
}
