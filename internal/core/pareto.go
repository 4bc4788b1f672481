package core

import (
	"fmt"
	"sort"
)

// Orbit-aware Pareto search.
//
// Equal-budget users are exchangeable: permuting the strategy rows of a
// class of same-budget users leaves every channel load unchanged and
// permutes the per-user utilities the same way. A member of a canonical
// representative's orbit therefore Pareto-dominates the base allocation
// iff, within each exchangeability class, the representative's utility
// multiset can be matched one-to-one against the class's base utilities
// with nobody hurt (u >= b - eps pairwise, the unreduced scan's exact
// comparison), and some class contributes a strict pair (u > b + eps).
// That turns the per-orbit question — up to N!-many member profiles — into
// one matching test per class on the representative alone.
//
// With both sides sorted ascending, the no-hurt constraint graph is a
// threshold bipartite graph, so Hall's condition collapses to the diagonal:
// a feasible matching exists iff u_t >= b_t - eps for every sorted position
// t. For the strict pair there are exactly two shapes (the exchange
// argument below): either
//
//   - Case A: some diagonal pair is already strict (u_t > b_t + eps) —
//     remove it and the remaining diagonals match the remaining positions;
//   - Case B: no diagonal pair is strict, but positions i < j exist with
//     u_j > b_i + eps and the removal-shifted middle pairs feasible,
//     u_t >= b_{t+1} - eps for every t in [i, j-1]; pairing u_j with b_i
//     and shifting u_i..u_{j-1} one base position up completes the match.
//
// Completeness: suppose some feasible matching holds a strict pair
// (u_p, b_q). If p <= q then u_p > b_q + eps >= b_p + eps (b sorted), so
// Case A fires at p. If p > q, removing the pair leaves two sorted
// (n-1)-multisets whose diagonal is exactly Case B's constraint set for
// (i, j) = (q, p); shrinking j to the smallest j' > i with u_j' > b_i + eps
// only shrinks the constrained middle range, so scanning each i with its
// minimal j (two pointers, prefix counts of violated middle pairs) decides
// the class in O(n) after sorting. Soundness is by construction: the
// matching the witness applies consists solely of pairs the scan verified
// with the unreduced scan's own float comparisons.

// paretoMatcher is the per-search precomputation of the orbit dominance
// test: base utilities grouped by exchangeability class and sorted, plus
// per-representative scratch sized to the largest class. Not safe for
// concurrent use — each search shard builds its own.
type paretoMatcher struct {
	classes [][]int // user indices per class (ascending)
	classOf []int   // user -> class index
	// Per class: members reordered by ascending base utility (ties by user
	// index) and the corresponding sorted utility values.
	orderedUsers [][]int
	sortedBase   [][]float64
	minBase      []float64
	// Per-representative scratch: the class's candidate utilities sorted
	// ascending (ties by user index), which representative user produced
	// each, and prefix counts of violated Case B middle pairs.
	candVal []float64
	candPos []int
	badPref []int
}

// newParetoMatcher precomputes the per-class sorted base utilities.
func newParetoMatcher(classes [][]int, base []float64) *paretoMatcher {
	pm := &paretoMatcher{classes: classes, classOf: make([]int, len(base))}
	maxClass := 0
	for ci, class := range classes {
		for _, u := range class {
			pm.classOf[u] = ci
		}
		if len(class) > maxClass {
			maxClass = len(class)
		}
		ordered := append([]int(nil), class...)
		sort.Slice(ordered, func(x, y int) bool {
			if base[ordered[x]] != base[ordered[y]] {
				return base[ordered[x]] < base[ordered[y]]
			}
			return ordered[x] < ordered[y]
		})
		vals := make([]float64, len(ordered))
		for t, u := range ordered {
			vals[t] = base[u]
		}
		pm.orderedUsers = append(pm.orderedUsers, ordered)
		pm.sortedBase = append(pm.sortedBase, vals)
		pm.minBase = append(pm.minBase, vals[0])
	}
	pm.candVal = make([]float64, maxClass)
	pm.candPos = make([]int, maxClass)
	pm.badPref = make([]int, maxClass)
	return pm
}

// sortClass fills candVal/candPos with class's utilities under the current
// representative, ascending (insertion sort — classes are small — with
// ties kept in ascending user order, so the witness is deterministic).
func (pm *paretoMatcher) sortClass(class []int, utils []float64) {
	cand, pos := pm.candVal[:len(class)], pm.candPos[:len(class)]
	for p, u := range class {
		v := utils[u]
		q := p
		for ; q > 0 && cand[q-1] > v; q-- {
			cand[q], pos[q] = cand[q-1], pos[q-1]
		}
		cand[q], pos[q] = v, u
	}
}

// classMatch decides one class of the orbit dominance test. It returns
// feasible (a no-hurt matching exists) and, when a strict pair can be
// worked in, its sorted positions (i, j): base position i takes candidate
// position j (i == j is Case A's diagonal pair; j == -1 means feasible but
// no strict option in this class).
func (pm *paretoMatcher) classMatch(ci int, class []int, utils []float64, eps float64) (feasible bool, si, sj int) {
	n := len(class)
	pm.sortClass(class, utils)
	cand, baseV := pm.candVal[:n], pm.sortedBase[ci]
	strictT := -1
	for t := 0; t < n; t++ {
		if cand[t] < baseV[t]-eps {
			return false, -1, -1
		}
		if strictT < 0 && cand[t] > baseV[t]+eps {
			strictT = t
		}
	}
	if strictT >= 0 {
		return true, strictT, strictT // Case A
	}
	// Case B. badPref[x] counts middle pairs t < x with
	// cand[t] < baseV[t+1] - eps; a (i, j) candidate needs none in [i, j-1].
	bad := pm.badPref[:n]
	bad[0] = 0
	for t := 0; t+1 < n; t++ {
		v := 0
		if cand[t] < baseV[t+1]-eps {
			v = 1
		}
		bad[t+1] = bad[t] + v
	}
	j := 1
	for i := 0; i < n; i++ {
		if j < i+1 {
			j = i + 1
		}
		for j < n && cand[j] <= baseV[i]+eps {
			j++
		}
		if j == n {
			// baseV only grows with i, so no later i finds a strict j either.
			return true, -1, -1
		}
		if bad[j] == bad[i] {
			return true, i, j
		}
	}
	return true, -1, -1
}

// improve decides whether some member of the representative's orbit
// Pareto-dominates the base profile (utils are the representative's
// per-user utilities) and, if so, materialises that member: within each
// class the representative's rows, sorted by the utility they yield, are
// dealt to the class members sorted by base utility — diagonally, except
// for the one strict class, which applies its Case A/B matching. Returns
// (nil, nil) when the orbit does not dominate.
func (pm *paretoMatcher) improve(rep *Alloc, utils []float64, eps float64) (*Alloc, error) {
	strictClass, strictI, strictJ := -1, 0, 0
	for ci, class := range pm.classes {
		feasible, i, j := pm.classMatch(ci, class, utils, eps)
		if !feasible {
			return nil, nil
		}
		if strictClass < 0 && j >= 0 {
			strictClass, strictI, strictJ = ci, i, j
		}
	}
	if strictClass < 0 {
		return nil, nil
	}
	w, err := NewAlloc(rep.Users(), rep.Channels())
	if err != nil {
		return nil, err
	}
	for ci, class := range pm.classes {
		pm.sortClass(class, utils)
		pos := pm.candPos[:len(class)]
		for p, src := range pos {
			q := p
			if ci == strictClass && strictI != strictJ {
				// Case B shift: candidate j serves base i, candidates
				// i..j-1 each move one base position up.
				switch {
				case p == strictJ:
					q = strictI
				case p >= strictI && p < strictJ:
					q = p + 1
				}
			}
			if err := w.SetRow(pm.orderedUsers[ci][q], rep.Row(src)); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// ParetoImprovement walks the canonical orbit space and returns an
// allocation Pareto-dominating the base utility profile within eps, or nil
// when no profile in the full (unreduced) strategy space dominates. The
// witness comes from the lexicographically first dominating orbit, so the
// result is deterministic.
func (oe *OrbitEnumerator) ParetoImprovement(base []float64, eps float64) (*Alloc, error) {
	return oe.paretoSearch(nil, base, eps)
}

// ParetoImprovementShard is ParetoImprovement restricted to the sub-space
// with the leading odometer digits pinned — the unit of work of the
// parallel search. Non-canonical prefixes denote empty shards and return
// nil immediately, exactly as in CanonicalShard.
func (oe *OrbitEnumerator) ParetoImprovementShard(pinned []int, base []float64, eps float64) (*Alloc, error) {
	return oe.paretoSearch(pinned, base, eps)
}

func (oe *OrbitEnumerator) paretoSearch(pinned []int, base []float64, eps float64) (*Alloc, error) {
	users := len(oe.Budgets)
	if len(base) != users {
		return nil, fmt.Errorf("core: pareto: %d base utilities for %d users", len(base), users)
	}
	pred := orbitPred(oe.Budgets)
	classes := orbitClasses(pred)
	tables := make([][][]int, users)
	sizes := make([]int, users)
	for u := range tables {
		tables[u] = oe.RowsFor(u)
		sizes[u] = len(tables[u])
	}
	a, err := NewAlloc(users, oe.Channels)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	idx := make([]int, users)
	for u, ri := range pinned {
		if ri < 0 || ri >= sizes[u] {
			return nil, fmt.Errorf("core: pinned digit %d out of range for user %d", ri, u)
		}
		if p := pred[u]; p >= 0 && idx[p] > ri {
			return nil, nil // non-canonical prefix: empty shard
		}
		idx[u] = ri
		if err := a.SetRow(u, tables[u][ri]); err != nil {
			return nil, fmt.Errorf("core: setting pinned row for user %d: %w", u, err)
		}
	}
	pm := newParetoMatcher(classes, base)
	ws := Workspaces.Get()
	defer Workspaces.Put(ws)
	view := oe.View
	var witness *Alloc
	var innerErr error
	err = orbitWalk(a, idx, len(pinned), sizes, pred,
		func(u, ri int) []int { return tables[u][ri] },
		nil, nil,
		func() bool {
			utils := ws.Utils(users)
			// Reject-first: a utility below the class's smallest base
			// utility (minus eps) hurts whoever receives it under ANY
			// within-class matching, so the orbit cannot dominate — bail
			// before computing the remaining users' utilities.
			for u := 0; u < users; u++ {
				ui := view.UtilityOf(a, u)
				if ui < pm.minBase[pm.classOf[u]]-eps {
					return true
				}
				utils[u] = ui
			}
			w, werr := pm.improve(a, utils, eps)
			if werr != nil {
				innerErr = werr
				return false
			}
			if w == nil {
				return true
			}
			witness = w
			return false
		})
	if err != nil {
		return nil, err
	}
	if innerErr != nil {
		return nil, fmt.Errorf("core: pareto witness: %w", innerErr)
	}
	return witness, nil
}
