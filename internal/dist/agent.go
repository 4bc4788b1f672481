package dist

import (
	"fmt"
	"net"
	"sync"
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

// RunAgent drives one device end of the protocol over conn until the
// coordinator broadcasts completion. timeout bounds each message exchange
// (<= 0 waits forever).
func RunAgent(conn net.Conn, policy Policy, timeout time.Duration) (AgentResult, error) {
	var res AgentResult
	if policy == nil {
		return res, fmt.Errorf("dist: nil policy")
	}
	p := newPeer(conn, timeout)
	hello, err := p.recv(msgHello)
	if err != nil {
		return res, err
	}
	res.User = hello.User
	for {
		if p.timeout > 0 {
			if err := p.conn.SetReadDeadline(time.Now().Add(p.timeout)); err != nil {
				return res, fmt.Errorf("dist: setting read deadline: %w", err)
			}
		}
		var m message
		if err := p.dec.Decode(&m); err != nil {
			return res, fmt.Errorf("dist: awaiting token: %w", err)
		}
		switch m.Type {
		case msgToken:
			row, err := policy.Propose(m.Loads, m.Row, hello.Radios)
			if err != nil {
				return res, fmt.Errorf("dist: policy for user %d: %w", hello.User, err)
			}
			if err := p.send(&message{Type: msgRow, Row: row}); err != nil {
				return res, err
			}
		case msgDone:
			res.Matrix = m.Matrix
			res.IsNE = m.NE
			res.Converged = m.Converged
			res.Rounds = m.Rounds
			if err := p.send(&message{Type: msgAck}); err != nil {
				return res, err
			}
			return res, nil
		default:
			return res, fmt.Errorf("dist: unexpected frame %q", m.Type)
		}
	}
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

// RunLocal wires one agent per user to a coordinator over in-process pipes
// and runs the protocol to completion.
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

	conns := make([]net.Conn, g.Users())
	clients := make([]net.Conn, g.Users())
	agents := make([]AgentResult, g.Users())
	agentErrs := make([]error, g.Users())
	var wg sync.WaitGroup
	for i := range policies {
		conns[i], clients[i] = net.Pipe()
		wg.Add(1)
		go func(i int, conn net.Conn, policy Policy) {
			defer wg.Done()
			agents[i], agentErrs[i] = RunAgent(conn, policy, co.timeout)
		}(i, clients[i], policies[i])
	}
	a, stats, runErr := co.Run(conns)
	// Disarm every deadline before closing any end. A net.Pipe deadline is
	// a pending timer that references the pipe, Close does not stop it, and
	// a pipe refuses SetDeadline once either end is closed — so a finished
	// ring's pipes would otherwise stay reachable for the whole timeout.
	// No end is closed yet (agents leave theirs to this function), so the
	// calls cannot fail.
	for i := range conns {
		_ = conns[i].SetDeadline(time.Time{})
		_ = clients[i].SetDeadline(time.Time{})
	}
	for _, conn := range conns {
		conn.Close() // unblocks agents if the coordinator bailed early
	}
	wg.Wait()
	for _, conn := range clients {
		conn.Close()
	}
	if runErr != nil {
		return nil, runErr
	}
	for i, err := range agentErrs {
		if err != nil {
			return nil, fmt.Errorf("dist: agent %d: %w", i, err)
		}
	}
	return &LocalResult{Alloc: a, Stats: stats, Agents: agents}, nil
}
