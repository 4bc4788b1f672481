package core

import (
	"fmt"
	"math"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// DefaultEps is the absolute tolerance used by the floating-point NE oracle
// when comparing a user's utility against its best-response value. Utilities
// are O(R0 · k); 1e-9 is far below any meaningful rate difference yet far
// above accumulated float error for the game sizes this library targets.
const DefaultEps = 1e-9

// Deviation reports a profitable unilateral deviation found by the
// best-response oracle.
type Deviation struct {
	User    int
	Current []int   // the user's current strategy row
	Better  []int   // a strictly better row
	Gain    float64 // utility improvement
}

// String renders the deviation with 1-based user labels.
func (d *Deviation) String() string {
	if d == nil {
		return "<no deviation>"
	}
	return fmt.Sprintf("user u%d can switch %v -> %v for +%.6g", d.User+1, d.Current, d.Better, d.Gain)
}

// BestResponse computes a utility-maximising reallocation of user i's radios
// (up to its budget k_i), holding all other users fixed. It returns an optimal
// strategy row and its utility.
//
// The optimisation is an exact dynamic program over channels: channels are
// independent once the user's own contribution is fixed, so
// max Σ_c v_c(x_c) subject to Σ_c x_c <= k decomposes channel by channel,
// where v_c(x) = x/(m_c+x) · R(m_c+x) and m_c is the other users' load.
// Idle radios are permitted (x summing below k); with strictly positive
// rates the optimum always uses the full budget (paper Lemma 1), which the
// tests assert.
//
// This is the one-shot convenience form; hot loops should hold a Workspace
// and call BestResponseInto, which allocates nothing in steady state.
func (g *Game) BestResponse(a *Alloc, i int) ([]int, float64, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, 0, err
	}
	row, val, err := g.BestResponseInto(NewWorkspace(), a, i)
	if err != nil {
		return nil, 0, err
	}
	return append([]int(nil), row...), val, nil
}

// BestResponseInto is the allocation-free form of BestResponse: the DP runs
// entirely inside ws and the returned row aliases ws (copy it to retain it
// past the next workspace use). The allocation is NOT re-validated — the
// caller (enumeration, dynamics, a checked wrapper) guarantees a matches
// the game's dimensions and budgets.
func (g *Game) BestResponseInto(ws *Workspace, a *Alloc, i int) ([]int, float64, error) {
	if ws == nil {
		return nil, 0, fmt.Errorf("core: nil workspace")
	}
	if i < 0 || i >= g.Users() {
		return nil, 0, fmt.Errorf("core: user %d out of range [0, %d)", i, g.Users())
	}
	row, val := g.view.BestResponseAllocInto(ws, a, i, g.budgets[i])
	return row, val, nil
}

// DeviationInto is the deviation test of user i at tolerance eps in the
// caller's workspace: improves reports that i's best response is worth more
// than Utility(a, i)+eps, and then row (aliasing ws) and best are exactly
// BestResponseInto's. Most quiet verdicts are decided without the DP by
// an exchange certificate that reads i's occupied channels and a channel
// summary of a, cached in ws per allocation state (RateView.DeviationInto,
// CertifiedQuiet); row is then nil. The allocation is NOT re-validated.
func (g *Game) DeviationInto(ws *Workspace, a *Alloc, i int, eps float64) (row []int, best float64, improves bool, err error) {
	if ws == nil {
		return nil, 0, false, fmt.Errorf("core: nil workspace")
	}
	if i < 0 || i >= g.Users() {
		return nil, 0, false, fmt.Errorf("core: user %d out of range [0, %d)", i, g.Users())
	}
	row, best, improves = g.view.DeviationInto(ws, a, i, g.budgets[i], eps)
	return row, best, improves, nil
}

// CertifiedQuiet runs DeviationInto's exchange certificate alone: true
// proves that user i has no deviation worth more than Utility(a, i)+eps,
// so DeviationInto(ws, a, i, eps) would report none, and counts a quiet
// verdict as DeviationInto does. False decides nothing: only the fold can
// tell whether user i is quiet. False is also the answer for a nil
// workspace or an out-of-range user, which DeviationInto reports as
// errors. The allocation is NOT re-validated.
func (g *Game) CertifiedQuiet(ws *Workspace, a *Alloc, i int, eps float64) bool {
	if ws == nil || i < 0 || i >= g.Users() {
		return false
	}
	_, quiet := g.view.certify(ws, a, i, g.budgets[i], eps)
	return quiet
}

// BestResponseToLoads computes the utility-maximising placement of up to k
// radios against fixed external channel loads ext (the other users' radios).
// This is the DP behind Game.BestResponse, exposed for callers that only
// know aggregate loads — notably the distributed protocol, where a device
// learns per-channel totals from its peers rather than a full matrix.
func BestResponseToLoads(rate ratefn.Func, ext []int, k int) ([]int, float64, error) {
	row, val, err := BestResponseToLoadsInto(NewWorkspace(), rate, ext, k)
	if err != nil {
		return nil, 0, err
	}
	return append([]int(nil), row...), val, nil
}

// BestResponseToLoadsInto is the allocation-free form of
// BestResponseToLoads: the DP runs inside ws and the returned row aliases
// ws. Callers that evaluate many load vectors (simulation loops, the
// distributed protocol, benchmarks) reuse one workspace across calls.
func BestResponseToLoadsInto(ws *Workspace, rate ratefn.Func, ext []int, k int) ([]int, float64, error) {
	if ws == nil {
		return nil, 0, fmt.Errorf("core: nil workspace")
	}
	if rate == nil {
		return nil, 0, fmt.Errorf("core: nil rate function")
	}
	if len(ext) == 0 {
		return nil, 0, fmt.Errorf("core: no channels")
	}
	if k < 0 {
		return nil, 0, fmt.Errorf("core: negative budget %d", k)
	}
	for c, l := range ext {
		if l < 0 {
			return nil, 0, fmt.Errorf("core: negative external load %d on channel %d", l, c)
		}
	}
	C := len(ext)
	ws.ensure(C, k)
	row, val := bestResponseDP(ws, fillSharesFunc(ws, rate, ext, k), C, k)
	return row, val, nil
}

// FindDeviation searches all users for a profitable unilateral deviation
// using the exact best-response oracle. It returns nil when a is a (weak)
// Nash equilibrium within tolerance eps (pass DefaultEps unless you have a
// reason not to).
func (g *Game) FindDeviation(a *Alloc, eps float64) (*Deviation, error) {
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("core: negative tolerance %v", eps)
	}
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	return g.FindDeviationWith(NewWorkspace(), a, eps)
}

// FindDeviationWith is FindDeviation running in the caller's workspace: it
// sweeps users in index order with the deviation test (DeviationInto) and
// returns the first profitable deviation (identical to FindDeviation's
// answer), or nil. Zero allocations unless a deviation is found. The
// allocation is not re-validated.
func (g *Game) FindDeviationWith(ws *Workspace, a *Alloc, eps float64) (*Deviation, error) {
	for i := 0; i < g.Users(); i++ {
		row, best, improves, err := g.DeviationInto(ws, a, i, eps)
		if err != nil {
			return nil, err
		}
		if improves {
			return &Deviation{
				User:    i,
				Current: a.Row(i),
				Better:  append([]int(nil), row...),
				Gain:    best - g.Utility(a, i),
			}, nil
		}
	}
	return nil, nil
}

// IsNashEquilibrium reports whether a is a Nash equilibrium of g, decided by
// exhaustive best response with tolerance DefaultEps. This is the library's
// ground-truth oracle; TheoremNE is the paper's closed-form
// characterisation.
func (g *Game) IsNashEquilibrium(a *Alloc) (bool, error) {
	if err := g.CheckAlloc(a); err != nil {
		return false, err
	}
	return g.IsNashEquilibriumWith(NewWorkspace(), a)
}

// IsNashEquilibriumWith decides NE membership in the caller's workspace
// with the screen-then-prove oracle (RateView.ScreenedNE), returning
// exactly the same verdict as IsNashEquilibrium with zero steady-state
// allocations: most non-equilibria exit on O(|C|) table reads with no DP
// at all, and only surviving profiles pay the full per-user DP proof.
//
// The allocation is not re-validated; callers guarantee it is legal.
func (g *Game) IsNashEquilibriumWith(ws *Workspace, a *Alloc) (bool, error) {
	if ws == nil {
		return false, fmt.Errorf("core: nil workspace")
	}
	return g.view.ScreenedNE(ws, a, g.budgets, DefaultEps), nil
}
