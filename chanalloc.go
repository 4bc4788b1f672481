// Package chanalloc is a Go implementation of the multi-radio channel
// allocation game of Félegyházi, Čagalj and Hubaux, "Multi-radio channel
// allocation in competitive wireless networks" (ICDCS 2006), together with
// the substrates the paper builds on: rate functions for reservation TDMA
// and CSMA/CA (Bianchi's DCF model), a slot-level CSMA/CA simulator,
// equilibrium analysis, convergence dynamics and a distributed allocation
// protocol.
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
//
// # What the facade exports
//
// The paper's own API stays even when only tests call it: the game and its
// rate functions (one constructor per family of the ParseRate grammar),
// the best response to fixed loads, the NE tests, Theorem 1 and
// Algorithm 1 with their options, the welfare optima and the price of
// anarchy, the dynamics runners and the figure scenarios:
//
//	Game Alloc RateFunc Violation NewGame NewHeteroGame NewAlloc AllocFromMatrix DefaultEps
//	TDMA HarmonicRate GeometricRate PracticalCSMA OptimalCSMA
//	BestResponseToLoads TheoremNE CheckAllLemmas LoadBalanced EnumerateNE FindParetoImprovement
//	Algorithm1 Algorithm1Option WithTieBreak WithSeed WithOrder WithLiteralRule TieBreak TieFirst TieRandom TieLast
//	OptimalWelfareAllPlaced OptimalWelfareIdleAllowed PriceOfAnarchy
//	RunBestResponse RunRadioGreedy RunSimultaneous RunBatch
//	ScenarioFigure1 ScenarioFigure4 ScenarioFigure5
//
// Any other name stays only if a non-test Go file under cmd/, examples/ or
// e2ebench/ names it (chanalloc.X, or ca.X in e2ebench), or if the
// signature of a kept name needs it. TestFacadeKeepRule enforces this list
// and this rule.
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
	// TieBreak selects among equally attractive channels in Algorithm 1.
	TieBreak = core.TieBreak
	// RateFunc is the channel rate function R(k_c).
	RateFunc = ratefn.Func
	// Workspace holds the reusable scratch of the best-response DP. Borrow
	// one per goroutine with BorrowWorkspace, pass it to the *Into/*With
	// entry points (Game.BestResponseInto, Game.IsNashEquilibriumWith,
	// WithDynamicsWorkspace, ...) for zero-allocation steady state, and
	// give it back with ReturnWorkspace.
	Workspace = core.Workspace
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

// OptimalWelfareAllPlaced computes the maximum total rate over allocations
// that deploy every radio, with one optimising load vector (a fresh copy).
// Each call runs the welfare DP over the game's rate table.
func OptimalWelfareAllPlaced(g *Game) (float64, []int) {
	return core.OptimalWelfareAllPlaced(g)
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

// EnumerateNE collects every Nash equilibrium of a tiny game by exhaustive
// search over the full profile grid (capped by maxProfiles), in odometer
// order: user 0 is the most significant digit.
func EnumerateNE(g *Game, maxProfiles int64) ([]*Alloc, error) {
	return core.EnumerateNE(g, maxProfiles)
}

// OccupancyDiagram renders an allocation in the style of the paper's
// Figure 1: one column per channel, user labels stacked per radio.
func OccupancyDiagram(a *Alloc) string { return core.OccupancyDiagram(a) }
