// Package workload provides the scenario registry of the repository: the
// named worked examples of the reproduced paper (the games and strategy
// matrices behind Figures 1, 2, 4 and 5), generator-backed parametric
// families (random instances, heterogeneous budgets, mesh and cognitive
// deployments), random instance generators and parameter sweeps for the
// experiment harnesses. The registry is open — see Register — and every
// scenario resolves through ByName.
package workload

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Scenario is a named game instance, optionally with a fixed allocation
// (the paper's worked examples pin both).
type Scenario struct {
	// Name identifies the scenario ("fig1", "random:8,6,3", ...).
	Name string
	// Description says what the scenario models.
	Description string
	// Game is the instance: a common budget k for the paper's families,
	// per-user budgets for the hetero family. The paper's figures all use
	// constant R, but callers may rebuild the game with another rate
	// function via Rebuild.
	Game *core.Game
	// Alloc is the pinned strategy matrix, or nil for generated scenarios.
	Alloc *core.Alloc
}

// Rebuild returns the same scenario with a different rate function (the
// matrices are rate-independent; utilities are not).
func (s *Scenario) Rebuild(r ratefn.Func) (*Scenario, error) {
	if s.Game == nil {
		return nil, fmt.Errorf("workload: scenario %s has no game", s.Name)
	}
	out := *s
	g, err := core.NewHeteroGame(s.Game.Channels(), s.Game.Budgets(), r)
	if err != nil {
		return nil, fmt.Errorf("workload: rebuilding %s: %w", s.Name, err)
	}
	out.Game = g
	if s.Alloc != nil {
		out.Alloc = s.Alloc.Clone()
	}
	return &out, nil
}

// Figure1 returns the paper's Figure 1/2 example: |N| = 4, k = 4, |C| = 5,
// a deliberately non-equilibrium allocation used to illustrate Lemmas 1-3.
func Figure1(r ratefn.Func) (*Scenario, error) {
	g, err := core.NewGame(4, 5, 4, r)
	if err != nil {
		return nil, fmt.Errorf("workload: figure 1 game: %w", err)
	}
	a, err := core.AllocFromMatrix([][]int{
		{1, 1, 1, 1, 0}, // u1, k_{u1} = 4
		{1, 0, 1, 0, 1}, // u2, k_{u2} = 3 (violates Lemma 1)
		{1, 2, 0, 1, 0}, // u3, two radios on c2 (Lemma 3 with b=c2, c=c3)
		{1, 0, 0, 1, 0}, // u4, k_{u4} = 2 (violates Lemma 1)
	})
	if err != nil {
		return nil, fmt.Errorf("workload: figure 1 matrix: %w", err)
	}
	return &Scenario{
		Name:        "fig1",
		Description: "Paper Figures 1-2: example (non-NE) allocation, |N|=4, k=4, |C|=5",
		Game:        g,
		Alloc:       a,
	}, nil
}

// Figure4 returns a Nash equilibrium with the dimensions and structure of
// the paper's Figure 4: |N| = 7, k = 4, |C| = 6, with u1 an "exception
// user" of Theorem 1 (two radios on a minimum-load channel).
func Figure4(r ratefn.Func) (*Scenario, error) {
	g, err := core.NewGame(7, 6, 4, r)
	if err != nil {
		return nil, fmt.Errorf("workload: figure 4 game: %w", err)
	}
	a, err := core.AllocFromMatrix([][]int{
		{1, 0, 0, 0, 2, 1}, // u1: exception user
		{1, 1, 1, 1, 0, 0},
		{1, 1, 1, 1, 0, 0},
		{1, 1, 1, 1, 0, 0},
		{0, 1, 1, 0, 1, 1},
		{0, 1, 0, 1, 1, 1},
		{1, 0, 1, 1, 0, 1},
	})
	if err != nil {
		return nil, fmt.Errorf("workload: figure 4 matrix: %w", err)
	}
	return &Scenario{
		Name:        "fig4",
		Description: "Paper Figure 4: NE with exception user u1, |N|=7, k=4, |C|=6",
		Game:        g,
		Alloc:       a,
	}, nil
}

// Figure5 returns a Nash equilibrium with the dimensions of the paper's
// Figure 5: |N| = 4, k = 4, |C| = 6, where no user needs Theorem 1's
// exception clause.
func Figure5(r ratefn.Func) (*Scenario, error) {
	g, err := core.NewGame(4, 6, 4, r)
	if err != nil {
		return nil, fmt.Errorf("workload: figure 5 game: %w", err)
	}
	a, err := core.AllocFromMatrix([][]int{
		{1, 1, 1, 0, 1, 0},
		{0, 1, 1, 1, 1, 0},
		{1, 0, 1, 1, 0, 1},
		{1, 1, 0, 1, 0, 1},
	})
	if err != nil {
		return nil, fmt.Errorf("workload: figure 5 matrix: %w", err)
	}
	return &Scenario{
		Name:        "fig5",
		Description: "Paper Figure 5: NE with no exception user, |N|=4, k=4, |C|=6",
		Game:        g,
		Alloc:       a,
	}, nil
}

// RandomGame draws a uniformly random game with 1 <= |N| <= maxUsers,
// 1 <= |C| <= maxChannels and 1 <= k <= min(maxRadios, |C|).
func RandomGame(seed uint64, maxUsers, maxChannels, maxRadios int, r ratefn.Func) (*core.Game, error) {
	if maxUsers < 1 || maxChannels < 1 || maxRadios < 1 {
		return nil, fmt.Errorf("workload: non-positive bounds (%d, %d, %d)", maxUsers, maxChannels, maxRadios)
	}
	rng := des.NewRNG(seed)
	users := 1 + rng.Intn(maxUsers)
	channels := 1 + rng.Intn(maxChannels)
	radios := 1 + rng.Intn(min(maxRadios, channels))
	return core.NewGame(users, channels, radios, r)
}

// Sweep enumerates (users, channels, radios) triples with channels in
// [minC, maxC], users in [minN, maxN], and radios in [1, min(maxK, C)],
// calling fn for each. fn returning an error aborts the sweep.
func Sweep(minN, maxN, minC, maxC, maxK int, fn func(users, channels, radios int) error) error {
	if minN < 1 || minC < 1 || maxK < 1 || maxN < minN || maxC < minC {
		return fmt.Errorf("workload: invalid sweep bounds N=[%d,%d] C=[%d,%d] K<=%d", minN, maxN, minC, maxC, maxK)
	}
	for n := minN; n <= maxN; n++ {
		for c := minC; c <= maxC; c++ {
			kCap := min(maxK, c)
			for k := 1; k <= kCap; k++ {
				if err := fn(n, c, k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
