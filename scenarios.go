package chanalloc

import (
	"github.com/multiradio/chanalloc/internal/workload"
)

// Scenario is a named game instance from the scenario registry, optionally
// with a pinned strategy matrix (the paper's worked examples pin both).
type Scenario = workload.Scenario

// ScenarioFamily describes one registered scenario family (name, usage
// grammar, description) for CLI listings.
type ScenarioFamily = workload.Family

// ScenarioGenerator builds a scenario instance from the parameter text
// after the family name and the caller's rate function.
type ScenarioGenerator = workload.Generator

// ScenarioFigure1 returns the paper's Figure 1/2 worked example (a non-NE
// allocation violating Lemmas 1-3).
func ScenarioFigure1(r RateFunc) (*Scenario, error) { return workload.Figure1(r) }

// ScenarioFigure4 returns a NE with Figure 4's structure (exception user).
func ScenarioFigure4(r RateFunc) (*Scenario, error) { return workload.Figure4(r) }

// ScenarioFigure5 returns a NE with Figure 5's structure (no exception
// user).
func ScenarioFigure5(r RateFunc) (*Scenario, error) { return workload.Figure5(r) }

// ScenarioByName resolves a scenario from the open registry. Plain names
// ("fig1", "mesh") and parametric families ("random:8,6,3",
// "hetero:6,4,4,2,1") both resolve here; see ScenarioFamilies for the full
// grammar of every registered family.
func ScenarioByName(name string, r RateFunc) (*Scenario, error) {
	return workload.ByName(name, r)
}

// ScenarioFamilies lists the registered families with usage and
// description — the source of CLI usage text.
func ScenarioFamilies() []ScenarioFamily { return workload.Families() }

// RegisterScenario adds a scenario family to the open registry, making it
// resolvable through ScenarioByName alongside the built-in workloads.
func RegisterScenario(f ScenarioFamily, gen ScenarioGenerator) error {
	return workload.Register(f, gen)
}
