package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/multiradio/chanalloc/internal/combin"
)

// Symmetry-reduced NE enumeration.
//
// Users with identical radio budgets are exchangeable: swapping the
// strategy rows of two same-budget users permutes per-user utilities the
// same way and leaves every channel load — an integer sum over rows —
// unchanged, so each user's floating-point screen, DP and utility
// computations see bit-identical inputs. The NE verdict is therefore
// constant on each orbit of the "permute rows within budget classes"
// action, and it suffices to test one canonical representative per orbit:
// the profile whose row indices are non-decreasing along each class. For
// an all-equal-budget game with R rows per user this shrinks the walk from
// R^N profiles to C(R+N-1, N) — the N!-ish reduction the paper's
// exchangeability argument promises.

// CanonicalNE is one equilibrium orbit: a canonical representative (row
// indices non-decreasing within each exchangeability class) together with
// the orbit size — the number of distinct strategy profiles obtained by
// permuting rows among exchangeable users, every one of them an NE.
type CanonicalNE struct {
	Alloc *Alloc
	Orbit int64
}

// OrbitEnumerator runs symmetry-reduced NE enumeration and Pareto search
// for one game, with ScreenedNE as its oracle. Exchangeability classes are
// the groups of equal-budget users; RowsFor must return identical row
// tables for users of equal budget (they have the same strategy space).
type OrbitEnumerator struct {
	View     *RateView
	Channels int
	Budgets  []int               // per-user radio budgets (exchangeability key)
	RowsFor  func(u int) [][]int // user u's strategy rows; shared within a class
	Eps      float64
}

// orbitPred computes within-class predecessor links: pred[u] is the
// largest u' < u with Budgets[u'] == Budgets[u], or -1 when u is the first
// of its class. Exchangeable users need not be contiguous (mixed-budget
// games interleave classes); the canonical constraint idx[u] >= idx[pred[u]]
// chains through these links.
func orbitPred(budgets []int) []int {
	pred := make([]int, len(budgets))
	last := make(map[int]int, 4)
	for u, b := range budgets {
		if p, seen := last[b]; seen {
			pred[u] = p
		} else {
			pred[u] = -1
		}
		last[b] = u
	}
	return pred
}

// orbitClasses groups user indices (ascending) by exchangeability class,
// in order of first appearance.
func orbitClasses(pred []int) [][]int {
	classOf := make([]int, len(pred))
	var classes [][]int
	for u, p := range pred {
		if p < 0 {
			classOf[u] = len(classes)
			classes = append(classes, []int{u})
			continue
		}
		ci := classOf[p]
		classOf[u] = ci
		classes[ci] = append(classes[ci], u)
	}
	return classes
}

// orbitSizeOf returns the number of distinct profiles in the orbit of the
// canonical vector idx: the product over classes of the multinomial of the
// multiplicities of equal indices. Requires idx non-decreasing along each
// class (the walk's invariant); multiplicities are then run lengths.
func orbitSizeOf(idx []int, classes [][]int) (int64, error) {
	size := int64(1)
	var counts []int
	for _, class := range classes {
		counts = counts[:0]
		run := 1
		for j := 1; j < len(class); j++ {
			if idx[class[j]] == idx[class[j-1]] {
				run++
				continue
			}
			counts = append(counts, run)
			run = 1
		}
		counts = append(counts, run)
		m, err := combin.Multinomial(counts)
		if err != nil {
			return 0, fmt.Errorf("core: orbit size: %w", err)
		}
		if size > (1<<62)/m {
			return 0, fmt.Errorf("core: orbit size of %v overflows int64", idx)
		}
		size *= m
	}
	return size, nil
}

// expandOrbitIdx calls emit with every index vector in the orbit of idx:
// all distinct ways of rearranging, within each class, the multiset of
// indices idx assigns to that class. emit receives a reused buffer it must
// copy if retained. idx itself need not be canonical — class values are
// sorted before permuting, so the emitted set is the full orbit either way.
func expandOrbitIdx(idx []int, classes [][]int, emit func([]int)) {
	cur := make([]int, len(idx))
	copy(cur, idx)
	var rec func(ci int)
	rec = func(ci int) {
		if ci == len(classes) {
			emit(cur)
			return
		}
		class := classes[ci]
		vals := make([]int, len(class))
		for j, u := range class {
			vals[j] = idx[u]
		}
		sort.Ints(vals)
		// Distinct values with multiplicities; the classic multiset
		// permutation recursion over them emits each arrangement once.
		distinct := vals[:0:0]
		var counts []int
		for _, v := range vals {
			if n := len(distinct); n > 0 && distinct[n-1] == v {
				counts[n-1]++
				continue
			}
			distinct = append(distinct, v)
			counts = append(counts, 1)
		}
		var place func(pos int)
		place = func(pos int) {
			if pos == len(class) {
				rec(ci + 1)
				return
			}
			for vi, v := range distinct {
				if counts[vi] == 0 {
					continue
				}
				counts[vi]--
				cur[class[pos]] = v
				place(pos + 1)
				counts[vi]++
			}
		}
		place(0)
	}
	rec(0)
}

// orbitWalk enumerates canonical index vectors — idx[u] >= idx[pred[u]]
// for every u — in lexicographic order, keeping the allocation's rows in
// step with the digits. Entries idx[0..offset-1] are pinned by the caller
// (rows already set); the walk covers digits offset..len(idx)-1, starting
// each at its class minimum. fn decides continuation, reading a and idx
// as read-only.
func orbitWalk(a *Alloc, idx []int, offset int, sizes, pred []int, rowFor func(u, ri int) []int, fn func() bool) error {
	n := len(idx)
	setRow := func(u, ri int) error {
		if err := a.SetRow(u, rowFor(u, ri)); err != nil {
			return fmt.Errorf("core: setting row for user %d: %w", u, err)
		}
		return nil
	}
	for u := offset; u < n; u++ {
		min := 0
		if p := pred[u]; p >= 0 {
			min = idx[p]
		}
		idx[u] = min
		if err := setRow(u, min); err != nil {
			return err
		}
	}
	for {
		if !fn() {
			return nil
		}
		// Lexicographic successor among canonical vectors: bump the
		// rightmost free digit below its ceiling (idx[u]+1 stays canonical
		// because it only grows above idx[pred[u]]), then reset every later
		// digit to its class minimum — the least canonical completion.
		u := n - 1
		for ; u >= offset; u-- {
			if idx[u] < sizes[u]-1 {
				break
			}
		}
		if u < offset {
			return nil
		}
		idx[u]++
		if err := setRow(u, idx[u]); err != nil {
			return err
		}
		for w := u + 1; w < n; w++ {
			min := 0
			if p := pred[w]; p >= 0 {
				min = idx[p]
			}
			if idx[w] == min {
				continue
			}
			idx[w] = min
			if err := setRow(w, min); err != nil {
				return err
			}
		}
	}
}

// Canonical walks the full canonical space and returns every equilibrium
// orbit, representatives in lexicographic index order.
func (oe *OrbitEnumerator) Canonical() ([]CanonicalNE, error) {
	return oe.enumerate(nil)
}

// CanonicalShard is Canonical restricted to the sub-space with the leading
// odometer digits pinned to the given row indices — the unit of work of
// the parallel enumerator. A prefix that is not canonical (a pinned digit
// below its class predecessor) denotes an empty shard and returns nil
// immediately, which is how sharding the raw digit grid composes with the
// reduced walk: non-canonical shards vanish instead of re-walking orbits.
func (oe *OrbitEnumerator) CanonicalShard(pinned []int) ([]CanonicalNE, error) {
	return oe.enumerate(pinned)
}

func (oe *OrbitEnumerator) enumerate(pinned []int) ([]CanonicalNE, error) {
	users := len(oe.Budgets)
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
			// Non-canonical prefix: empty shard. Its whole subgrid is
			// decided by some canonical representative's orbit — exactly
			// the profiles symmetry reduction saves.
			if grid, ok := shardGridSize(sizes, len(pinned)); ok {
				mOrbitSkips.Add(uint64(grid))
			}
			return nil, nil
		}
		idx[u] = ri
		if err := a.SetRow(u, tables[u][ri]); err != nil {
			return nil, fmt.Errorf("core: setting pinned row for user %d: %w", u, err)
		}
	}
	ws := Workspaces.Get()
	defer Workspaces.Put(ws)
	var out []CanonicalNE
	var innerErr error
	visited := uint64(0)
	err = orbitWalk(a, idx, len(pinned), sizes, pred,
		func(u, ri int) []int { return tables[u][ri] },
		func() bool {
			visited++
			ws.obs.orbitProfiles++
			if oe.View.ScreenedNE(ws, a, oe.Budgets, oe.Eps) {
				orbit, oerr := orbitSizeOf(idx, classes)
				if oerr != nil {
					innerErr = oerr
					return false
				}
				out = append(out, CanonicalNE{Alloc: a.Clone(), Orbit: orbit})
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	if innerErr != nil {
		return nil, innerErr
	}
	// Profiles this shard covered minus profiles it had to visit is the
	// symmetry saving; shards whose full subgrid overflows int64 (far past
	// any enumerable cap) just skip the metric.
	if grid, ok := shardGridSize(sizes, len(pinned)); ok && uint64(grid) >= visited {
		mOrbitSkips.Add(uint64(grid) - visited)
	}
	return out, nil
}

// shardGridSize is the unreduced profile count of an enumeration shard:
// the product of the unpinned digits' alphabet sizes. ok=false on int64
// overflow.
func shardGridSize(sizes []int, pinned int) (int64, bool) {
	total := int64(1)
	for _, s := range sizes[pinned:] {
		if s == 0 {
			return 0, true
		}
		if total > (1<<62)/int64(s) {
			return 0, false
		}
		total *= int64(s)
	}
	return total, true
}

// CanonicalCount returns the number of canonical profiles the reduced walk
// visits: the product over classes of MultisetCount(rows, class size).
// Compare against the full R^N grid to read off the reduction factor.
func (oe *OrbitEnumerator) CanonicalCount() (int64, error) {
	classes := orbitClasses(orbitPred(oe.Budgets))
	total := int64(1)
	for _, class := range classes {
		n, err := combin.MultisetCount(len(oe.RowsFor(class[0])), len(class))
		if err != nil {
			return 0, fmt.Errorf("core: canonical count: %w", err)
		}
		if total > (1<<62)/n {
			return 0, fmt.Errorf("core: canonical count overflows int64")
		}
		total *= n
	}
	return total, nil
}

// rowKey encodes a strategy row for map lookup during expansion.
func rowKey(row []int) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// Expand reconstructs the unreduced enumeration output from equilibrium
// orbits: every member profile of every orbit, materialised as its own
// allocation, in the exact order the unreduced odometer would have visited
// them. Orbits of distinct canonical vectors interleave in odometer order
// (the orbit of (0,2) contains (2,0), which precedes the orbit-mate (1,1)
// of (1,1)), so the expanded index vectors are sorted globally rather than
// concatenated per orbit. Representatives must be legal allocations over
// the game's strategy rows and pairwise non-equivalent; the enumerators
// guarantee both.
func (oe *OrbitEnumerator) Expand(reps []CanonicalNE) ([]*Alloc, error) {
	if len(reps) == 0 {
		return nil, nil
	}
	users := len(oe.Budgets)
	pred := orbitPred(oe.Budgets)
	classes := orbitClasses(pred)
	tables := make([][][]int, users)
	for u := range tables {
		tables[u] = oe.RowsFor(u)
	}
	// Row -> index lookup, one table per budget class.
	lookup := make(map[int]map[string]int, 4)
	buf := make([]int, oe.Channels)
	var vecs [][]int
	for _, rep := range reps {
		idx := make([]int, users)
		for u := 0; u < users; u++ {
			m := lookup[oe.Budgets[u]]
			if m == nil {
				m = make(map[string]int, len(tables[u]))
				for ri, row := range tables[u] {
					m[rowKey(row)] = ri
				}
				lookup[oe.Budgets[u]] = m
			}
			for c := 0; c < oe.Channels; c++ {
				buf[c] = rep.Alloc.Radios(u, c)
			}
			ri, found := m[rowKey(buf)]
			if !found {
				return nil, fmt.Errorf("core: expand: user %d's row is not a strategy row of the game", u)
			}
			idx[u] = ri
		}
		expandOrbitIdx(idx, classes, func(v []int) {
			vecs = append(vecs, append([]int(nil), v...))
		})
	}
	sort.Slice(vecs, func(i, j int) bool {
		x, y := vecs[i], vecs[j]
		for p := range x {
			if x[p] != y[p] {
				return x[p] < y[p]
			}
		}
		return false
	})
	out := make([]*Alloc, len(vecs))
	for i, v := range vecs {
		a, err := NewAlloc(users, oe.Channels)
		if err != nil {
			return nil, fmt.Errorf("core: expand: %w", err)
		}
		for u, ri := range v {
			if err := a.SetRow(u, tables[u][ri]); err != nil {
				return nil, fmt.Errorf("core: expand: setting row for user %d: %w", u, err)
			}
		}
		out[i] = a
	}
	return out, nil
}

// orbitEnumerator builds the symmetry-reduction engine for g over its
// per-user strategy rows (see strategyRows): exchangeability classes are
// the equal-budget user groups, which in a mixed-budget game need not be
// contiguous.
func (g *Game) orbitEnumerator(rows [][][]int) *OrbitEnumerator {
	return &OrbitEnumerator{
		View:     g.view,
		Channels: g.channels,
		Budgets:  g.budgets,
		RowsFor:  func(u int) [][]int { return rows[u] },
		Eps:      DefaultEps,
	}
}

// EnumerateNECanonical enumerates Nash equilibria over canonical orbit
// representatives only: one allocation per equilibrium orbit plus the
// orbit size, in lexicographic representative order. Users of equal budget
// are exchangeable, so for an all-equal-k game every within-orbit
// permutation is checked exactly once instead of up to N! times. The
// profile cap guards the FULL unreduced space, so the refusal behaviour is
// identical to the unreduced enumeration even though the reduced walk
// visits far fewer profiles.
func EnumerateNECanonical(g *Game, maxProfiles int64) ([]CanonicalNE, error) {
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	return g.orbitEnumerator(rows).Canonical()
}

// ExpandNEOrbits reconstructs the unreduced EnumerateNE output (every
// orbit member, odometer order) from canonical representatives.
func ExpandNEOrbits(g *Game, reps []CanonicalNE) ([]*Alloc, error) {
	rows, err := strategyRows(g)
	if err != nil {
		return nil, err
	}
	return g.orbitEnumerator(rows).Expand(reps)
}
