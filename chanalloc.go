// Package chanalloc is a Go implementation of the multi-radio channel
// allocation game of Félegyházi, Čagalj and Hubaux, "Multi-radio channel
// allocation in competitive wireless networks" (ICDCS 2006), together with
// the substrates the paper builds on: rate functions for reservation TDMA
// and CSMA/CA (Bianchi's DCF model), slot-level MAC simulators, equilibrium
// analysis, convergence dynamics and a distributed allocation protocol.
//
// # Model
//
// |N| selfish users each own a device with k ≤ |C| radios and distribute
// them over |C| orthogonal channels. The total rate R(k_c) of a channel is
// non-increasing in the number of radios k_c sharing it and is split evenly
// among them, so user i earns U_i = Σ_c k_{i,c}/k_c · R(k_c).
//
// # Quick start
//
//	g, err := chanalloc.NewGame(7, 6, 4, chanalloc.TDMA(54))
//	if err != nil { ... }
//	ne, err := chanalloc.Algorithm1(g)       // Pareto-optimal Nash equilibrium
//	ok, _ := chanalloc.TheoremNE(g, ne)      // paper's Theorem 1 checker
//	stable, _ := g.IsNashEquilibrium(ne)     // exact best-response oracle
//
// # Scenario registry
//
// Workloads resolve by name through an open registry: the paper's worked
// examples ("fig1", "fig4", "fig5"), parametric families
// ("random:N,C,k[,seed]", "hetero:C,k1,k2,..."), and deployment-flavoured
// workloads ("mesh", "cognitive"). ScenarioByName resolves any of them;
// RegisterScenario plugs in new families:
//
//	s, err := chanalloc.ScenarioByName("random:8,6,3", chanalloc.TDMA(54))
//
// # Parallel experiment engine
//
// Batch paths run on a deterministic worker pool (ParallelMap, RunBatch):
// jobs fan out over runtime.NumCPU()
// workers, every job draws randomness from a PRNG stream derived from the
// root seed and the job index alone, and results fan in ordered by job —
// so batch output is byte-identical for every worker count. cmd/sweep runs
// its whole experiment suite (EXPERIMENTS.md) on this engine via -seed and
// -workers.
//
// The package is a facade: implementation lives in internal packages (core,
// ratefn, bianchi, macsim, des, engine, workload, dynamics, dist, ...),
// each documented and tested on its own.
package chanalloc

import (
	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Core game types, re-exported.
type (
	// Game fixes |N|, |C|, the radio budgets (k, or k_i per user; see
	// NewHeteroGame) and the rate function.
	Game = core.Game
	// Alloc is a strategy matrix with cached channel loads.
	Alloc = core.Alloc
	// Violation is a witness that an allocation breaks one of the paper's
	// NE conditions.
	Violation = core.Violation
	// Deviation is a profitable unilateral strategy change found by the
	// best-response oracle.
	Deviation = core.Deviation
	// TieBreak selects among equally attractive channels in Algorithm 1.
	TieBreak = core.TieBreak
	// RateFunc is the channel rate function R(k_c).
	RateFunc = ratefn.Func
	// Workspace holds the reusable scratch of the best-response DP; hold
	// one per goroutine and pass it to the *Into/*With entry points
	// (Game.BestResponseInto, Game.IsNashEquilibriumWith, ...) for
	// zero-allocation steady state.
	Workspace = core.Workspace
	// RateView is a game's precomputed, lock-free rate table (R over the
	// bounded load domain plus the best-response share plane); see
	// Game.View.
	RateView = core.RateView
)

// Tie-break policies for Algorithm 1.
const (
	TieFirst  = core.TieFirst
	TieRandom = core.TieRandom
	TieLast   = core.TieLast
)

// DefaultEps is the tolerance of the floating-point NE oracle.
const DefaultEps = core.DefaultEps

// NewGame validates and constructs a game with |N| = users, |C| = channels
// and k = radios per user (k ≤ |C|).
func NewGame(users, channels, radios int, rate RateFunc) (*Game, error) {
	return core.NewGame(users, channels, radios, rate)
}

// NewAlloc returns an all-zero allocation.
func NewAlloc(users, channels int) (*Alloc, error) {
	return core.NewAlloc(users, channels)
}

// AllocFromMatrix builds an allocation from an explicit strategy matrix
// (rows = users, columns = channels).
func AllocFromMatrix(matrix [][]int) (*Alloc, error) {
	return core.AllocFromMatrix(matrix)
}

// Algorithm1 runs the paper's centralised sequential allocation; the result
// is always a Pareto-optimal Nash equilibrium. See WithTieBreak, WithSeed,
// WithOrder and WithLiteralRule for options.
func Algorithm1(g *Game, opts ...Algorithm1Option) (*Alloc, error) {
	return core.Algorithm1(g, opts...)
}

// Algorithm1Option configures Algorithm1.
type Algorithm1Option = core.Algorithm1Option

// WithTieBreak selects Algorithm 1's tie-breaking policy.
func WithTieBreak(t TieBreak) Algorithm1Option { return core.WithTieBreak(t) }

// WithSeed fixes the RNG seed used by TieRandom.
func WithSeed(seed uint64) Algorithm1Option { return core.WithSeed(seed) }

// WithOrder sets the order in which users allocate.
func WithOrder(order []int) Algorithm1Option { return core.WithOrder(order) }

// WithLiteralRule reproduces the paper-literal placement rule, which can
// stack radios under unlucky tie-breaking and then is not an equilibrium;
// see the EXPERIMENTS.md entry for E10.
func WithLiteralRule() Algorithm1Option { return core.WithLiteralRule() }

// TheoremNE applies the paper's Theorem 1 (and Fact 1 in the no-conflict
// regime) to decide NE membership, returning a witness when it fails.
func TheoremNE(g *Game, a *Alloc) (bool, *Violation) {
	return core.TheoremNE(g, a)
}

// CheckAllLemmas evaluates Lemmas 1-4 and Proposition 1, returning one
// witness per violated rule.
func CheckAllLemmas(g *Game, a *Alloc) []*Violation {
	return core.CheckAllLemmas(g, a)
}

// BestResponseToLoads computes the optimal placement of up to k radios
// against fixed external channel loads.
func BestResponseToLoads(rate RateFunc, ext []int, k int) ([]int, float64, error) {
	return core.BestResponseToLoads(rate, ext, k)
}

// NewWorkspace returns an empty best-response workspace; its buffers are
// sized on first use and reused across calls.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// BestResponseToLoadsInto is the allocation-free form of
// BestResponseToLoads: the DP runs inside ws and the returned row aliases
// it (copy to retain). Reuse one workspace across many load vectors.
func BestResponseToLoadsInto(ws *Workspace, rate RateFunc, ext []int, k int) ([]int, float64, error) {
	return core.BestResponseToLoadsInto(ws, rate, ext, k)
}

// OptimalWelfareAllPlaced computes the maximum total rate over allocations
// that deploy every radio, with one optimising load vector (a fresh copy).
// Each call runs the welfare DP over the game's rate table.
func OptimalWelfareAllPlaced(g *Game) (float64, []int) {
	return core.OptimalWelfareAllPlaced(g)
}

// OptimalLoadWelfare maximises Σ_{c : l_c > 0} R(l_c) over load vectors on
// C channels placing exactly total radios — the welfare DP behind
// OptimalWelfareAllPlaced, exposed for callers that only know aggregate
// loads. One-shot form of OptimalLoadWelfareInto.
func OptimalLoadWelfare(rate RateFunc, C, total int) (float64, []int) {
	return core.OptimalLoadWelfare(rate, C, total)
}

// OptimalLoadWelfareInto is the welfare DP in the caller's workspace: zero
// steady-state allocations, returned loads aliasing ws (copy to retain).
func OptimalLoadWelfareInto(ws *Workspace, rate RateFunc, C, total int) (float64, []int) {
	return core.OptimalLoadWelfareInto(ws, rate, C, total)
}

// OptimalWelfareIdleAllowed computes the maximum total rate when radios may
// idle.
func OptimalWelfareIdleAllowed(g *Game) (float64, []int) {
	return core.OptimalWelfareIdleAllowed(g)
}

// PriceOfAnarchy returns welfare(a) divided by the all-placed optimum, or
// an error when a is not a legal allocation of g.
func PriceOfAnarchy(g *Game, a *Alloc) (float64, error) {
	return core.PriceOfAnarchy(g, a)
}

// FindParetoImprovement searches for an allocation Pareto-dominating a,
// returning nil when a is Pareto-optimal over the full strategy space.
// Exponential; intended for small instances (maxProfiles caps the search
// by the full profile count). It walks every profile in odometer order and
// returns the first one that dominates a.
func FindParetoImprovement(g *Game, a *Alloc, eps float64, maxProfiles int64) (*Alloc, error) {
	return core.FindParetoImprovement(g, a, eps, maxProfiles)
}

// FindParetoImprovementParallel returns FindParetoImprovement's witness.
//
// Deprecated: the search is no longer sharded and workers is ignored; call
// FindParetoImprovement.
func FindParetoImprovementParallel(g *Game, a *Alloc, eps float64, maxProfiles int64, workers int) (*Alloc, error) {
	return core.FindParetoImprovement(g, a, eps, maxProfiles)
}

// EnumerateNE collects every Nash equilibrium of a tiny game by exhaustive
// search over the full profile grid (capped by maxProfiles), in odometer
// order: user 0 is the most significant digit.
func EnumerateNE(g *Game, maxProfiles int64) ([]*Alloc, error) {
	return core.EnumerateNE(g, maxProfiles)
}

// OccupancyDiagram renders an allocation in the style of the paper's
// Figure 1: one column per channel, user labels stacked per radio.
func OccupancyDiagram(a *Alloc) string { return core.OccupancyDiagram(a) }
