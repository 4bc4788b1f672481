package core

import (
	"fmt"
	"math"

	"github.com/multiradio/chanalloc/internal/combin"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// OptimalWelfareAllPlaced computes the maximum achievable total rate
// Σ_{c : l_c > 0} R(l_c) over load vectors that place all Σ_i k_i radios
// (|N|·k in the uniform game; Lemma 1 forces full deployment in
// equilibrium, so this is the natural welfare benchmark for NE
// comparisons). It returns the optimum and one
// optimising load vector (a fresh copy). Each call runs the welfare DP over
// the game's rate table.
func OptimalWelfareAllPlaced(g *Game) (float64, []int) {
	return OptimalLoadWelfare(g.view.Frozen(), g.channels, g.total)
}

// OptimalLoadWelfare maximises Σ_{c : l_c > 0} R(l_c) over load vectors on
// C channels placing exactly total radios — the welfare optimum depends on
// the load vector alone, so every game shares this dynamic program with
// total = Σ_i k_i. It returns
// the optimum and one optimising load vector.
//
// One-shot convenience form of OptimalLoadWelfareInto: a fresh workspace
// and copied loads. Hot loops hold a Workspace and call the Into form.
func OptimalLoadWelfare(rate ratefn.Func, C, total int) (float64, []int) {
	val, loads := OptimalLoadWelfareInto(NewWorkspace(), rate, C, total)
	return val, append(make([]int, 0, len(loads)), loads...)
}

// OptimalLoadWelfareInto is the welfare dynamic program in the caller's
// workspace: O(|C| · T²) for T total radios, zero steady-state allocations,
// returned loads aliasing ws (copy to retain past the next welfare call).
//
// The recurrence f[c][t] = max_l R(l) + f[c+1][t-l] runs over flat
// contiguous slabs with the -Inf "leftover radios" sentinel hoisted out
// entirely: the base row C-1 must place everything it is given (only l = t
// leaves no leftovers), so f[C-1][t] = R(t) and every remaining row folds
// purely finite values — the inner loop is a branch-reduced max over two
// contiguous slices, with rates pre-sampled once into a slab. Values and
// argmax loads are bit-identical to the former per-row form: an O(|C|·T)
// traceback rescans each chosen cell for the first l attaining its value,
// which is exactly the argmax the old strict-> scan recorded.
//
// Degenerate domains are decided up front (the old per-row allocation
// could index an empty choice row): zero channels place nothing — welfare
// 0 for total == 0, -Inf (infeasible) otherwise — and a negative total is
// -Inf with an all-zero load vector.
func OptimalLoadWelfareInto(ws *Workspace, rate ratefn.Func, C, total int) (float64, []int) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if C <= 0 {
		if total == 0 {
			return 0, ws.wload[:0]
		}
		return math.Inf(-1), ws.wload[:0]
	}
	if total < 0 {
		_, _, loads := ws.ensureWelfare(C, 0)
		for c := range loads {
			loads[c] = 0
		}
		return math.Inf(-1), loads
	}
	rates, f, loads := ws.ensureWelfare(C, total)
	for l := 0; l <= total; l++ {
		rates[l] = rate.Rate(l)
	}
	stride := total + 1
	copy(f[(C-1)*stride:C*stride], rates)
	for c := C - 2; c >= 0; c-- {
		cur := f[c*stride : c*stride+stride]
		next := f[(c+1)*stride : (c+1)*stride+stride]
		for t := 0; t <= total; t++ {
			best := rates[0] + next[t]
			for l := 1; l <= t; l++ {
				if val := rates[l] + next[t-l]; val > best {
					best = val
				}
			}
			cur[t] = best
		}
	}
	t := total
	for c := 0; c < C-1; c++ {
		next := f[(c+1)*stride:]
		target := f[c*stride+t]
		l := 0
		for ; l < t; l++ {
			if rates[l]+next[t-l] == target {
				break
			}
		}
		loads[c] = l
		t -= l
	}
	loads[C-1] = t
	return f[total], loads
}

// OptimalWelfareIdleAllowed computes the maximum total rate when radios may
// be left idle. Because R is non-increasing with R(1) maximal, the optimum
// simply lights up min(|C|, Σ_i k_i) channels with one radio each.
func OptimalWelfareIdleAllowed(g *Game) (float64, []int) {
	lit := min(g.Channels(), g.total)
	loads := make([]int, g.Channels())
	for c := 0; c < lit; c++ {
		loads[c] = 1
	}
	return float64(lit) * g.Rate().Rate(1), loads
}

// PriceOfAnarchy returns welfare(a) / optimalWelfare for the all-placed
// benchmark. 1 means the allocation is system-optimal. Returns an error if
// a is not a legal allocation of g or the optimum is non-positive
// (degenerate rate function). Each call runs the O(|C|·T²) welfare DP.
func PriceOfAnarchy(g *Game, a *Alloc) (float64, error) {
	if err := g.CheckAlloc(a); err != nil {
		return 0, err
	}
	opt, _ := OptimalLoadWelfareInto(NewWorkspace(), g.view.Frozen(), g.channels, g.total)
	if opt <= 0 {
		return 0, fmt.Errorf("core: degenerate optimum %v; rate function is zero everywhere", opt)
	}
	return g.Welfare(a) / opt, nil
}

// strategyRows materialises every user's legal strategy rows: all radio
// vectors over |C| channels with total between 0 and k_i, in the order
// the exhaustive searches walk them. Equal-budget users share one table,
// so each distinct budget's compositions are generated once.
func strategyRows(g *Game) ([][][]int, error) {
	byBudget := make(map[int][][]int, 4)
	rowsPerUser := make([][][]int, g.Users())
	for i, k := range g.budgets {
		rows, ok := byBudget[k]
		if !ok {
			for total := 0; total <= k; total++ {
				err := combin.Compositions(total, g.channels, func(row []int) bool {
					rows = append(rows, append([]int(nil), row...))
					return true
				})
				if err != nil {
					return nil, err
				}
			}
			byBudget[k] = rows
		}
		rowsPerUser[i] = rows
	}
	return rowsPerUser, nil
}

// cappedStrategyRows is strategyRows guarded by maxProfiles against the
// full profile count Π_u |rows_u|, the refusal rule every exhaustive
// search shares.
func cappedStrategyRows(g *Game, maxProfiles int64) ([][][]int, error) {
	rows, err := strategyRows(g)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, len(rows))
	for u, r := range rows {
		counts[u] = int64(len(r))
	}
	if err := checkProfileCap(counts, maxProfiles); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkProfileCap verifies the product of the per-user strategy counts
// stays within maxProfiles. The guard divides instead of multiplying so the
// running product can never overflow int64: totalProfiles >
// maxProfiles/perUser (integer division) implies totalProfiles·perUser >
// maxProfiles, and otherwise the product is at most maxProfiles. The
// former `maxProfiles/perUser+1` form admitted a boundary multiply that
// wrapped negative for huge perUser and then passed the final comparison.
func checkProfileCap(counts []int64, maxProfiles int64) error {
	totalProfiles := int64(1)
	for _, perUser := range counts {
		if perUser <= 0 {
			return fmt.Errorf("core: non-positive strategy count %d per user", perUser)
		}
		if totalProfiles > maxProfiles/perUser {
			return fmt.Errorf("core: strategy space too large (> %d profiles)", maxProfiles)
		}
		totalProfiles *= perUser
	}
	if totalProfiles > maxProfiles {
		return fmt.Errorf("core: strategy space has %d profiles, cap is %d", totalProfiles, maxProfiles)
	}
	return nil
}

// EnumerateNE collects every Nash equilibrium of a tiny game by exhaustive
// search: it walks the whole profile grid in odometer order (user 0 the
// most significant digit, each user's rows in strategyRows order) and
// keeps every profile the screened NE oracle accepts, in that order.
// Intended for cross-validation tests; guarded by maxProfiles against the
// full profile count.
func EnumerateNE(g *Game, maxProfiles int64) ([]*Alloc, error) {
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	ws := Workspaces.Get()
	defer Workspaces.Put(ws)
	var out []*Alloc
	err = gridWalk(g, rows, func(a *Alloc) bool {
		if g.view.ScreenedNE(ws, a, g.budgets, DefaultEps) {
			out = append(out, a.Clone())
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FindParetoImprovement searches for an allocation that makes every user
// at least as well off as in a and at least one user strictly better
// (within tolerance eps on both comparisons: hurt iff u < base-eps, strict
// iff u > base+eps). It returns nil if a is Pareto-optimal over the full
// strategy space. Exponential; guarded by maxProfiles against the full
// profile count.
//
// The search walks the whole profile grid in odometer order (user 0 the
// most significant digit, each user's rows in strategyRows order) and
// returns the first dominating profile it meets, so the witness is
// deterministic. Each profile is tested user by user and dropped at the
// first hurt user.
func FindParetoImprovement(g *Game, a *Alloc, eps float64, maxProfiles int64) (*Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	base := g.Utilities(a)
	var found *Alloc
	err = gridWalk(g, rows, func(b *Alloc) bool {
		strict := false
		for i := range base {
			u := g.Utility(b, i)
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
