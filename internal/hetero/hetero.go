// Package hetero extends the channel allocation game to heterogeneous
// radio budgets: user i owns k_i <= |C| radios, with budgets differing
// across users. The reproduced paper assumes a uniform k (its §2 model);
// this package probes how far its results carry beyond that assumption —
// the kind of generalisation the paper's conclusion gestures at.
//
// Empirically (see the package tests and experiment E11):
//
//   - Lemma 1 (full deployment) and Proposition 1 (loads within one radio)
//     remain necessary for Nash equilibria under positive constant rates;
//   - the sequential greedy allocation (Algorithm 1 run with per-user
//     budgets) still lands on an exact Nash equilibrium.
package hetero

import (
	"fmt"
	"sync"

	"github.com/multiradio/chanalloc/internal/combin"
	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Game is a channel allocation game with per-user radio budgets. Like
// core.Game, construction precomputes a core.RateView over the bounded
// load domain (total load <= Σ_i k_i), so utilities, welfare and the
// best-response DP read tables instead of calling through the rate
// interface; the rate function must be pure.
type Game struct {
	channels int
	budgets  []int
	rate     ratefn.Func
	view     *core.RateView

	// All-placed welfare optimum, memoised on first use exactly like
	// core.Game's (written once under optOnce, read lock-free after).
	optOnce  sync.Once
	optVal   float64
	optLoads []int
}

// NewGame validates budgets (1 <= k_i <= channels) and builds a game.
func NewGame(channels int, budgets []int, rate ratefn.Func) (*Game, error) {
	if channels < 1 {
		return nil, fmt.Errorf("hetero: channels = %d, want >= 1", channels)
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("hetero: no users")
	}
	for i, k := range budgets {
		if k < 1 {
			return nil, fmt.Errorf("hetero: user %d budget %d, want >= 1", i, k)
		}
		if k > channels {
			return nil, fmt.Errorf("hetero: user %d budget %d exceeds %d channels", i, k, channels)
		}
	}
	if rate == nil {
		return nil, fmt.Errorf("hetero: nil rate function")
	}
	total, maxBudget := 0, 0
	for _, k := range budgets {
		total += k
		if k > maxBudget {
			maxBudget = k
		}
	}
	return &Game{
		channels: channels,
		budgets:  append([]int(nil), budgets...),
		rate:     rate,
		view:     core.NewRateView(rate, total, maxBudget),
	}, nil
}

// Users returns |N|.
func (g *Game) Users() int { return len(g.budgets) }

// Channels returns |C|.
func (g *Game) Channels() int { return g.channels }

// Budget returns k_i.
func (g *Game) Budget(i int) int { return g.budgets[i] }

// Budgets returns a copy of the budget vector.
func (g *Game) Budgets() []int { return append([]int(nil), g.budgets...) }

// Rate returns the rate function.
func (g *Game) Rate() ratefn.Func { return g.rate }

// View returns the game's precomputed rate view (shared read-only).
func (g *Game) View() *core.RateView { return g.view }

// NewEmptyAlloc returns an all-zero allocation with this game's dimensions.
func (g *Game) NewEmptyAlloc() *core.Alloc {
	a, err := core.NewAlloc(g.Users(), g.channels)
	if err != nil {
		panic("hetero: invalid game dimensions: " + err.Error())
	}
	return a
}

// CheckAlloc verifies dimensions and per-user budgets.
func (g *Game) CheckAlloc(a *core.Alloc) error {
	if a == nil {
		return fmt.Errorf("hetero: nil allocation")
	}
	if a.Users() != g.Users() || a.Channels() != g.channels {
		return fmt.Errorf("hetero: allocation is %dx%d, game is %dx%d",
			a.Users(), a.Channels(), g.Users(), g.channels)
	}
	for i := 0; i < g.Users(); i++ {
		if total := a.UserTotal(i); total > g.budgets[i] {
			return fmt.Errorf("hetero: user %d deploys %d radios, budget is %d", i, total, g.budgets[i])
		}
	}
	return nil
}

// Utility computes U_i per the paper's Eq. 3 (table-backed rates).
func (g *Game) Utility(a *core.Alloc, i int) float64 {
	return g.view.UtilityOf(a, i)
}

// Utilities computes every user's utility.
func (g *Game) Utilities(a *core.Alloc) []float64 {
	out := make([]float64, a.Users())
	for i := range out {
		out[i] = g.Utility(a, i)
	}
	return out
}

// UtilitiesInto is Utilities into the workspace's reusable buffer: zero
// steady-state allocations; the returned slice aliases ws.
func (g *Game) UtilitiesInto(ws *core.Workspace, a *core.Alloc) []float64 {
	return g.view.UtilitiesInto(ws, a)
}

// Welfare computes Σ_{c : k_c > 0} R(k_c) = Σ_i U_i.
func (g *Game) Welfare(a *core.Alloc) float64 {
	var w float64
	for c := 0; c < a.Channels(); c++ {
		if kc := a.Load(c); kc > 0 {
			w += g.view.RateAt(kc)
		}
	}
	return w
}

// Potential evaluates the exact congestion potential
// Φ(S) = Σ_c Σ_{j=1}^{k_c} R(j)/j via the precomputed rate table, in the
// same term order (and hence bit-identical) as dynamics.Potential with the
// game's own rate function. The potential argument is budget-free, so the
// uniform game's monotonicity guarantees carry over unchanged.
func (g *Game) Potential(a *core.Alloc) float64 {
	var phi float64
	for c := 0; c < a.Channels(); c++ {
		for j := 1; j <= a.Load(c); j++ {
			phi += g.view.RateAt(j) / float64(j)
		}
	}
	return phi
}

// BestResponse computes user i's optimal reallocation within its budget.
// One-shot form of BestResponseInto.
func (g *Game) BestResponse(a *core.Alloc, i int) ([]int, float64, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, 0, err
	}
	row, val, err := g.BestResponseInto(core.NewWorkspace(), a, i)
	if err != nil {
		return nil, 0, err
	}
	return append([]int(nil), row...), val, nil
}

// BestResponseInto is the allocation-free best response: the DP runs in the
// caller's workspace and the returned row aliases it. The allocation is not
// re-validated.
func (g *Game) BestResponseInto(ws *core.Workspace, a *core.Alloc, i int) ([]int, float64, error) {
	if ws == nil {
		return nil, 0, fmt.Errorf("hetero: nil workspace")
	}
	if i < 0 || i >= g.Users() {
		return nil, 0, fmt.Errorf("hetero: user %d out of range [0, %d)", i, g.Users())
	}
	row, val := g.view.BestResponseAllocInto(ws, a, i, g.budgets[i])
	return row, val, nil
}

// BestResponseValueInto is BestResponseInto's value alone, bit for bit,
// without tracing back the optimal row — all a deviation verdict needs.
func (g *Game) BestResponseValueInto(ws *core.Workspace, a *core.Alloc, i int) (float64, error) {
	if ws == nil {
		return 0, fmt.Errorf("hetero: nil workspace")
	}
	if i < 0 || i >= g.Users() {
		return 0, fmt.Errorf("hetero: user %d out of range [0, %d)", i, g.Users())
	}
	return g.view.BestResponseValueInto(ws, a, i, g.budgets[i]), nil
}

// FindDeviation returns a profitable unilateral deviation, or nil when a is
// a Nash equilibrium within eps.
func (g *Game) FindDeviation(a *core.Alloc, eps float64) (*core.Deviation, error) {
	if eps < 0 {
		return nil, fmt.Errorf("hetero: negative tolerance %v", eps)
	}
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	return g.FindDeviationWith(core.NewWorkspace(), a, eps)
}

// FindDeviationWith is FindDeviation in the caller's workspace: zero
// allocations unless a deviation is found; the allocation is not
// re-validated.
func (g *Game) FindDeviationWith(ws *core.Workspace, a *core.Alloc, eps float64) (*core.Deviation, error) {
	for i := 0; i < g.Users(); i++ {
		current := g.Utility(a, i)
		row, best, err := g.BestResponseInto(ws, a, i)
		if err != nil {
			return nil, err
		}
		if best > current+eps {
			return &core.Deviation{
				User:    i,
				Current: a.Row(i),
				Better:  append([]int(nil), row...),
				Gain:    best - current,
			}, nil
		}
	}
	return nil, nil
}

// IsNashEquilibrium decides NE membership with the exact best-response
// oracle at tolerance core.DefaultEps.
func (g *Game) IsNashEquilibrium(a *core.Alloc) (bool, error) {
	if err := g.CheckAlloc(a); err != nil {
		return false, err
	}
	return g.IsNashEquilibriumWith(core.NewWorkspace(), a)
}

// IsNashEquilibriumWith decides NE membership in the caller's workspace
// via the shared screen-then-prove oracle (core.RateView.ScreenedNE) with
// per-user budgets: identical verdict to IsNashEquilibrium, zero
// steady-state allocations. The allocation is not re-validated.
func (g *Game) IsNashEquilibriumWith(ws *core.Workspace, a *core.Alloc) (bool, error) {
	if ws == nil {
		return false, fmt.Errorf("hetero: nil workspace")
	}
	return g.view.ScreenedNE(ws, a, 0, g.budgets, core.DefaultEps), nil
}

// Algorithm1 runs the paper's sequential greedy allocation with per-user
// budgets: users place their radios in index order, each radio on a least
// loaded channel (preferring channels the user does not occupy yet).
func Algorithm1(g *Game, tie core.TieBreak, seed uint64) (*core.Alloc, error) {
	if tie == 0 {
		tie = core.TieFirst
	}
	a := g.NewEmptyAlloc()
	placer := core.Placer{Tie: tie, RNG: des.NewRNG(seed)}
	for i := 0; i < g.Users(); i++ {
		row, err := placer.Place(a.Loads(), g.budgets[i])
		if err != nil {
			return nil, fmt.Errorf("hetero: algorithm1 user %d: %w", i, err)
		}
		if err := a.SetRow(i, row); err != nil {
			return nil, fmt.Errorf("hetero: algorithm1 applying row for user %d: %w", i, err)
		}
	}
	return a, nil
}

// allPlacedOptimum computes the all-placed welfare optimum once per game
// and serves the memo afterwards. The returned slice is the memo itself —
// callers must not mutate it (OptimalWelfareAllPlaced copies).
func (g *Game) allPlacedOptimum() (float64, []int) {
	g.optOnce.Do(func() {
		total := 0
		for _, k := range g.budgets {
			total += k
		}
		val, loads := core.OptimalLoadWelfareInto(core.NewWorkspace(), g.view.Frozen(), g.channels, total)
		g.optVal = val
		g.optLoads = append([]int(nil), loads...)
	})
	return g.optVal, g.optLoads
}

// OptimalWelfareAllPlaced computes the maximum achievable total rate over
// load vectors that place all Σ_i k_i radios — the heterogeneous analogue
// of the uniform-budget all-placed welfare benchmark (full deployment
// remains necessary for NE under positive constant rates, so this is the
// natural denominator for a heterogeneous price of anarchy). It returns the
// optimum and one optimising load vector (a fresh copy); the DP runs once
// per game and is memoised.
func OptimalWelfareAllPlaced(g *Game) (float64, []int) {
	opt, loads := g.allPlacedOptimum()
	return opt, append([]int(nil), loads...)
}

// OptimalWelfareIdleAllowed computes the maximum total rate when radios may
// be left idle: light up min(|C|, Σ_i k_i) channels with one radio each
// (R is non-increasing with R(1) maximal).
func OptimalWelfareIdleAllowed(g *Game) (float64, []int) {
	total := 0
	for _, k := range g.budgets {
		total += k
	}
	lit := g.channels
	if total < lit {
		lit = total
	}
	loads := make([]int, g.channels)
	for c := 0; c < lit; c++ {
		loads[c] = 1
	}
	return float64(lit) * g.rate.Rate(1), loads
}

// PriceOfAnarchy returns Welfare(a) / OptimalWelfareAllPlaced — 1 means the
// allocation is system-optimal among full deployments. Errors on a
// degenerate (non-positive) optimum.
func PriceOfAnarchy(g *Game, a *core.Alloc) (float64, error) {
	opt, _ := g.allPlacedOptimum()
	if opt <= 0 {
		return 0, fmt.Errorf("hetero: degenerate optimum %v; rate function is zero everywhere", opt)
	}
	return g.Welfare(a) / opt, nil
}

// LoadBalanced reports whether max and min channel loads differ by at most
// one (the generalised Proposition 1 property).
func LoadBalanced(a *core.Alloc) bool {
	maxLoad, _ := a.MaxLoad()
	minLoad, _ := a.MinLoad()
	return maxLoad-minLoad <= 1
}

// FullDeployment reports whether every user uses its whole budget (the
// generalised Lemma 1 property).
func (g *Game) FullDeployment(a *core.Alloc) bool {
	for i := 0; i < g.Users(); i++ {
		if a.UserTotal(i) != g.budgets[i] {
			return false
		}
	}
	return true
}

// strategyRowsPerUser materialises every user's legal strategy rows (all
// radio vectors with total between 0 and k_i). Equal-budget users receive
// the SAME table slice, which is the exchangeability contract of the
// symmetry-reduced enumerator and also trims redundant composition walks.
func strategyRowsPerUser(g *Game) ([][][]int, error) {
	byBudget := make(map[int][][]int, 4)
	rowsPerUser := make([][][]int, g.Users())
	for i := 0; i < g.Users(); i++ {
		if rows, ok := byBudget[g.budgets[i]]; ok {
			rowsPerUser[i] = rows
			continue
		}
		var rows [][]int
		for total := 0; total <= g.budgets[i]; total++ {
			err := combin.Compositions(total, g.channels, func(row []int) bool {
				rows = append(rows, append([]int(nil), row...))
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		byBudget[g.budgets[i]] = rows
		rowsPerUser[i] = rows
	}
	return rowsPerUser, nil
}

// checkProfileCap guards the FULL (unreduced) profile count against
// maxProfiles. Divide-based: multiplying first could overflow int64 for
// huge per-user strategy counts (see core.checkProfileCap).
func checkProfileCap(rowsPerUser [][][]int, maxProfiles int64) error {
	totalProfiles := int64(1)
	for _, rows := range rowsPerUser {
		if totalProfiles > maxProfiles/int64(len(rows)) {
			return fmt.Errorf("hetero: strategy space too large (> %d profiles)", maxProfiles)
		}
		totalProfiles *= int64(len(rows))
	}
	if totalProfiles > maxProfiles {
		return fmt.Errorf("hetero: strategy space has %d profiles, cap is %d", totalProfiles, maxProfiles)
	}
	return nil
}

// orbitEnumerator builds the shared symmetry-reduction engine (see
// core.OrbitEnumerator): exchangeability classes are the equal-budget user
// groups, which in a mixed-budget game need not be contiguous.
func (g *Game) orbitEnumerator(rowsPerUser [][][]int) *core.OrbitEnumerator {
	return &core.OrbitEnumerator{
		View:      g.view,
		Channels:  g.channels,
		Budgets:   g.budgets,
		RowsFor:   func(u int) [][]int { return rowsPerUser[u] },
		Eps:       core.DefaultEps,
		ErrPrefix: "hetero",
	}
}

// ForEachAlloc enumerates every legal strategy matrix (budgets respected,
// idle radios allowed), guarded by maxProfiles, calling fn with a reused
// Alloc that fn must treat as read-only. The walk is odometer-aware: only
// rows whose digit changed between consecutive profiles are re-set.
// Exponential: exhaustive oracles on tiny instances only.
func ForEachAlloc(g *Game, maxProfiles int64, fn func(*core.Alloc) bool) error {
	rowsPerUser, err := strategyRowsPerUser(g)
	if err != nil {
		return err
	}
	if err := checkProfileCap(rowsPerUser, maxProfiles); err != nil {
		return err
	}
	sizes := make([]int, g.Users())
	for i, rows := range rowsPerUser {
		sizes[i] = len(rows)
	}
	a := g.NewEmptyAlloc()
	return core.ProductWalk(a, 0, sizes, func(u, ri int) []int { return rowsPerUser[u][ri] }, "hetero", fn)
}

// EnumerateNECanonical enumerates Nash equilibria over canonical orbit
// representatives only: users of equal budget are exchangeable, so one
// representative per orbit (row indices non-decreasing along each budget
// class) is tested and returned with its orbit size. The profile cap
// guards the full unreduced space, keeping refusal behaviour identical to
// ForEachAlloc/EnumerateNE.
func EnumerateNECanonical(g *Game, maxProfiles int64) ([]core.CanonicalNE, error) {
	rowsPerUser, err := strategyRowsPerUser(g)
	if err != nil {
		return nil, err
	}
	if err := checkProfileCap(rowsPerUser, maxProfiles); err != nil {
		return nil, err
	}
	return g.orbitEnumerator(rowsPerUser).Canonical()
}

// ExpandNEOrbits reconstructs the unreduced EnumerateNE output (every
// orbit member, odometer order) from canonical representatives.
func ExpandNEOrbits(g *Game, reps []core.CanonicalNE) ([]*core.Alloc, error) {
	rowsPerUser, err := strategyRowsPerUser(g)
	if err != nil {
		return nil, err
	}
	return g.orbitEnumerator(rowsPerUser).Expand(reps)
}

// EnumerateNE collects every exact Nash equilibrium of a tiny game
// (identical results and order to walking the full grid and checking
// IsNashEquilibrium per profile). Like core.EnumerateNE the search is
// symmetry-reduced over budget classes and the full set reconstructed by
// orbit expansion.
func EnumerateNE(g *Game, maxProfiles int64) ([]*core.Alloc, error) {
	reps, err := EnumerateNECanonical(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	return ExpandNEOrbits(g, reps)
}

// FindParetoImprovement searches for an allocation dominating a (nobody
// hurt beyond eps, somebody strictly better than eps) and returns nil when
// a is Pareto-optimal over the full strategy space. Like the uniform-game
// search it is symmetry-reduced over budget classes: canonical orbit
// representatives are walked and each orbit decided by one per-class
// utility matching test (see core.OrbitEnumerator.ParetoImprovement). The
// profile cap guards the full unreduced space.
func FindParetoImprovement(g *Game, a *core.Alloc, eps float64, maxProfiles int64) (*core.Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	rowsPerUser, err := strategyRowsPerUser(g)
	if err != nil {
		return nil, err
	}
	if err := checkProfileCap(rowsPerUser, maxProfiles); err != nil {
		return nil, err
	}
	return g.orbitEnumerator(rowsPerUser).ParetoImprovement(g.Utilities(a), eps)
}

// FindParetoImprovementUnreduced is the direct grid Pareto search over
// every profile, bailing on the first hurt user — the differential
// baseline for the orbit-aware FindParetoImprovement.
func FindParetoImprovementUnreduced(g *Game, a *core.Alloc, eps float64, maxProfiles int64) (*core.Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	base := g.Utilities(a)
	var found *core.Alloc
	err := ForEachAlloc(g, maxProfiles, func(b *core.Alloc) bool {
		strict := false
		for i := range base {
			u := g.view.UtilityOf(b, i)
			if u < base[i]-eps {
				return true // someone is hurt; keep searching
			}
			if u > base[i]+eps {
				strict = true
			}
		}
		if strict {
			found = b.Clone()
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}
