package chanalloc

import (
	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/spectrum"
)

// Heterogeneous budgets: per-user radio counts k_i, the paper's model
// generalised beyond uniform k (see EXPERIMENTS.md E11). A game with
// per-user budgets is an ordinary Game — Algorithm1, the NE oracle,
// EnumerateNE, the welfare optima, PriceOfAnarchy, FindParetoImprovement
// and RunBestResponse all read each user's own budget.
type (
	// HeteroGame is a game built with per-user budgets; it is the same
	// type as Game.
	HeteroGame = core.Game
)

// NewHeteroGame builds a game where user i owns budgets[i] radios
// (1 <= k_i <= channels).
func NewHeteroGame(channels int, budgets []int, rate RateFunc) (*HeteroGame, error) {
	return core.NewHeteroGame(channels, budgets, rate)
}

// LoadBalanced reports whether channel loads differ by at most one (the
// Proposition 1 property, which survives per-user budgets).
func LoadBalanced(a *Alloc) bool {
	maxLoad, _ := a.MaxLoad()
	minLoad, _ := a.MinLoad()
	return maxLoad-minLoad <= 1
}

// Spectrum modelling: bands, channels, devices and radio-level assignments.
type (
	// Band is a frequency band of equal-width orthogonal channels.
	Band = spectrum.Band
	// Device is a multi-radio node.
	Device = spectrum.Device
	// Deployment binds devices to a band.
	Deployment = spectrum.Deployment
)

// UNII5GHz returns a 5 GHz U-NII band with eight orthogonal channels.
func UNII5GHz() Band { return spectrum.UNII5GHz() }

// NewDeployment validates devices against a band.
func NewDeployment(band Band, devs []Device) (*Deployment, error) {
	return spectrum.NewDeployment(band, devs)
}
