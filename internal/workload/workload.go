// Package workload provides the scenario registry of the repository: the
// named worked examples of the reproduced paper (the games and strategy
// matrices behind Figures 1, 2, 4 and 5), generator-backed parametric
// families (random instances, heterogeneous budgets, mesh and cognitive
// deployments). The registry is open — see Register — and every scenario
// resolves through ByName.
package workload

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
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
	// constant R; every family takes the rate function as a parameter.
	Game *core.Game
	// Alloc is the pinned strategy matrix, or nil for generated scenarios.
	Alloc *core.Alloc
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
