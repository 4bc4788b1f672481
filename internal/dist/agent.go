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
type agent struct {
	policy Policy
	hello  *message // nil until the hello frame arrives
	done   bool
	res    AgentResult
}

// handle checks one coordinator frame against the hello and the protocol
// order and returns the reply frame: none for hello, a row for a token and
// an ack for done. A frame that does not fit is refused with an error.
func (ag *agent) handle(m *message) (*message, error) {
	if ag.done {
		return nil, fmt.Errorf("dist: frame %q after done", m.Type)
	}
	if ag.hello == nil {
		if m.Type != msgHello {
			return nil, fmt.Errorf("dist: got %q, want %q", m.Type, msgHello)
		}
		if m.Channels < 1 || m.Radios < 1 || m.Radios > m.Channels {
			return nil, fmt.Errorf("dist: hello announces %d radios on %d channels, want 1 <= radios <= channels",
				m.Radios, m.Channels)
		}
		ag.hello = m
		ag.res.User = m.User
		return nil, nil
	}
	switch m.Type {
	case msgToken:
		if err := ag.checkToken(m); err != nil {
			return nil, fmt.Errorf("dist: token for user %d: %w", ag.hello.User, err)
		}
		row, err := ag.policy.Propose(m.Loads, m.Row, ag.hello.Radios)
		if err != nil {
			return nil, fmt.Errorf("dist: policy for user %d: %w", ag.hello.User, err)
		}
		return &message{Type: msgRow, Row: row}, nil
	case msgDone:
		for u, row := range m.Matrix {
			if len(row) != ag.hello.Channels {
				return nil, fmt.Errorf("dist: done matrix row %d has %d channels, want %d",
					u, len(row), ag.hello.Channels)
			}
		}
		ag.done = true
		ag.res.Matrix = m.Matrix
		ag.res.IsNE = m.NE
		ag.res.Converged = m.Converged
		ag.res.Rounds = m.Rounds
		return &message{Type: msgAck}, nil
	default:
		return nil, fmt.Errorf("dist: unexpected frame %q", m.Type)
	}
}

// checkToken validates a token's loads and current row against the hello.
func (ag *agent) checkToken(m *message) error {
	if len(m.Loads) != ag.hello.Channels {
		return fmt.Errorf("%d loads, want %d", len(m.Loads), ag.hello.Channels)
	}
	for c, v := range m.Loads {
		if v < 0 {
			return fmt.Errorf("negative load %d on channel %d", v, c)
		}
	}
	return checkRow(m.Row, ag.hello.Channels, ag.hello.Radios)
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
		if ag.hello == nil {
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

// localLink carries frames to an in-process agent by direct call. Each
// frame is deep-copied on the way in and the reply on the way out, so
// neither side can alias the other's slices.
type localLink struct {
	ag    agent
	reply *message // the agent's answer to the last frame sent, if any
}

func (l *localLink) send(m *message) error {
	reply, err := l.ag.handle(m.clone())
	if err != nil {
		return err
	}
	l.reply = reply
	return nil
}

func (l *localLink) recv(wantType string) (*message, error) {
	m := l.reply
	l.reply = nil
	if m == nil {
		return nil, fmt.Errorf("dist: awaiting %s: agent sent nothing", wantType)
	}
	if m.Type != wantType {
		return nil, fmt.Errorf("dist: got %q, want %q", m.Type, wantType)
	}
	return m.clone(), nil
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
// connections.
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
