package chanalloc

import (
	"net"
	"time"

	"github.com/multiradio/chanalloc/internal/dist"
)

// Distributed-protocol types, re-exported. See the internal/dist package
// documentation for the wire protocol.
type (
	// Coordinator sequences the distributed token ring.
	Coordinator = dist.Coordinator
	// CoordinatorOption configures a Coordinator.
	CoordinatorOption = dist.CoordinatorOption
	// Policy chooses a device's row when it holds the token. The ext and
	// current arguments of Propose are valid only for the call; a policy
	// that keeps them must copy them.
	Policy = dist.Policy
	// GreedyPolicy reproduces Algorithm 1's placement over messages.
	GreedyPolicy = dist.GreedyPolicy
	// BestResponsePolicy plays exact best responses to announced loads.
	BestResponsePolicy = dist.BestResponsePolicy
	// AgentResult is a device's view of the final broadcast.
	AgentResult = dist.AgentResult
	// DistResult bundles coordinator and agent views of an in-process run.
	DistResult = dist.LocalResult
	// DistRingSpec is a fully serialisable token-ring run description that
	// can cross the engine's Backend wire protocol to remote workers.
	DistRingSpec = dist.RingSpec
	// DistRateSpec is a serialisable channel rate function.
	DistRateSpec = dist.RateSpec
	// DistRingResult is the serialisable outcome of one ring run.
	DistRingResult = dist.RingResult
)

// DistRingTask is the registered engine task name behind
// RunDistributedRingBatch; a cluster worker registering it can serve ring
// grids for any coordinator.
const DistRingTask = dist.RingTask

// NewCoordinator builds a protocol coordinator for g.
func NewCoordinator(g *Game, opts ...CoordinatorOption) (*Coordinator, error) {
	return dist.NewCoordinator(g, opts...)
}

// WithDistTimeout bounds each protocol message wait on a connection
// (Coordinator.Run); RunDistributed calls its agents directly and never
// waits on a message.
func WithDistTimeout(d time.Duration) CoordinatorOption { return dist.WithTimeout(d) }

// RunAgent drives one device end of the protocol over conn until the
// coordinator broadcasts completion.
func RunAgent(conn net.Conn, policy Policy, timeout time.Duration) (AgentResult, error) {
	return dist.RunAgent(conn, policy, timeout)
}

// RunDistributed runs the protocol to completion with one in-process agent
// per user, handing each agent its frames by direct call rather than over
// a connection.
func RunDistributed(g *Game, policies []Policy, opts ...CoordinatorOption) (*DistResult, error) {
	return dist.RunLocal(g, policies, opts...)
}

// UniformPolicies builds one policy per user from a factory.
func UniformPolicies(n int, factory func(user int) Policy) []Policy {
	return dist.UniformPolicies(n, factory)
}

// RunDistributedRingBatch fans a grid of serialisable ring specs over any
// engine backend — the in-process pool, worker subprocesses, or cluster
// workers on other machines — with byte-identical results on each. Run r
// builds its policies from the stream EngineJobSeed(root, r).
func RunDistributedRingBatch(b EngineBackend, specs []DistRingSpec, opts ...EngineOption) ([]DistRingResult, EngineStats, error) {
	return dist.RunRingBatch(b, specs, opts...)
}
