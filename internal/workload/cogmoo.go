package workload

import (
	"fmt"
	"math"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// CogMOO is the multi-objective bundle of the cogmoo scenario family,
// after Ghasemi & Ghasemi's multi-objective channel allocation in
// cognitive radio networks (arXiv:2004.05767): secondary users picking
// licensed channels trade THROUGHPUT against the INTERFERENCE their
// transmissions inflict on primary users, with FAIRNESS across secondary
// users as the third axis. The game's utilities carry the throughput
// objective; this bundle carries the other two and a weighted-sum
// scalarisation, all derived deterministically from the family's seed so a
// scenario name pins the whole problem instance.
type CogMOO struct {
	// Interference[i][c] is the cost user i inflicts when transmitting on
	// channel c — the primary-user activity on c weighted by user i's
	// proximity to that primary, drawn in [0, 1).
	Interference [][]float64
}

// cogmooSeedScramble decorrelates the objective-weight stream from the
// start-allocation stream, which is drawn from the same scenario seed.
const cogmooSeedScramble = 0x243f6a8885a308d3

// NewCogMOOObjectives derives the interference matrix of a cogmoo instance
// from its dimensions and seed alone, so callers can recreate the bundle
// for any scenario name without re-resolving the scenario.
func NewCogMOOObjectives(users, channels int, seed uint64) (*CogMOO, error) {
	if users < 1 {
		return nil, fmt.Errorf("want >= 1 users, got %d", users)
	}
	if channels < 1 {
		return nil, fmt.Errorf("want >= 1 channels, got %d", channels)
	}
	rng := des.NewRNG(seed*0x9e3779b97f4a7c15 + cogmooSeedScramble)
	// Primary-user activity is per channel; each secondary user sees it
	// through its own proximity factor, so interference is genuinely
	// per-user per-channel as in the reference model.
	activity := make([]float64, channels)
	for c := range activity {
		activity[c] = rng.Float64()
	}
	m := &CogMOO{Interference: make([][]float64, users)}
	for i := range m.Interference {
		proximity := rng.Float64()
		row := make([]float64, channels)
		for c := range row {
			row[c] = activity[c] * proximity
		}
		m.Interference[i] = row
	}
	return m, nil
}

// InterferenceCost sums the per-user interference objective over an
// allocation: every radio a user keeps on a channel pays that user's
// interference weight there. Lower is better.
func (m *CogMOO) InterferenceCost(a *core.Alloc) float64 {
	total := 0.0
	for i, row := range m.Interference {
		for c, w := range row {
			total += float64(a.Radios(i, c)) * w
		}
	}
	return total
}

// Fairness is Jain's index over the users' utilities:
// (Σu)² / (N·Σu²), 1 when perfectly equal, 1/N when one user takes all.
// An all-zero utility vector reports 1 (nobody is treated unequally).
func (m *CogMOO) Fairness(utils []float64) float64 {
	if len(utils) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, u := range utils {
		sum += u
		sumSq += u * u
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(utils)) * sumSq)
}

// Score is the weighted-sum scalarisation of the three objectives on an
// allocation of game g: wRate rewards per-user throughput (welfare / N),
// wFair rewards Jain fairness of the utilities, wInterf penalises the
// per-user interference cost. The weights are the caller's policy; the
// reference model explores the Pareto front by sweeping them.
func (m *CogMOO) Score(g *core.Game, a *core.Alloc, wRate, wFair, wInterf float64) float64 {
	n := float64(g.Users())
	if n == 0 || math.IsNaN(wRate+wFair+wInterf) {
		return 0
	}
	return wRate*g.Welfare(a)/n +
		wFair*m.Fairness(g.Utilities(a)) -
		wInterf*m.InterferenceCost(a)/n
}

// generateCogMOO builds the cogmoo:N,C[,seed] family: N single-radio
// secondary users over C licensed channels with a pinned seeded random
// start, plus the seed-derived multi-objective bundle (recreate it with
// NewCogMOOObjectives). Unlike the bistritz regime, C < N is allowed —
// crowded cognitive bands force channel sharing, which is exactly where
// the fairness and interference objectives start disagreeing with raw
// throughput.
func generateCogMOO(params string, r ratefn.Func) (*Scenario, error) {
	vals, err := parseInts(params)
	if err != nil {
		return nil, err
	}
	if len(vals) != 2 && len(vals) != 3 {
		return nil, fmt.Errorf("want cogmoo:N,C[,seed], got %d parameters", len(vals))
	}
	users, channels := vals[0], vals[1]
	seed := uint64(1)
	if len(vals) == 3 {
		if vals[2] < 0 {
			return nil, fmt.Errorf("negative seed %d", vals[2])
		}
		seed = uint64(vals[2])
	}
	if err := CheckCells(users, channels); err != nil {
		return nil, err
	}
	if _, err := NewCogMOOObjectives(users, channels, seed); err != nil {
		return nil, err
	}
	g, err := core.NewGame(users, channels, 1, r)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: fmt.Sprintf("cogmoo:%d,%d,%d", users, channels, seed),
		Description: fmt.Sprintf(
			"multi-objective cognitive band (arXiv:2004.05767): %d secondary users, %d channels, "+
				"per-user interference + fairness objectives, seed %d",
			users, channels, seed),
		Game:  g,
		Alloc: dynamics.RandomAlloc(g, seed),
	}, nil
}
