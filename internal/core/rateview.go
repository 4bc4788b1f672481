package core

import (
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Table-size caps for the precomputed views. A game whose load domain (or
// share plane) exceeds the cap keeps a passthrough view that falls back to
// the rate function's own method — the fast paths stay correct, they just
// lose the table reads. The caps are far above every practical game in the
// experiment suite (256 users × 32 radios needs ~270k share entries).
const (
	maxRateTableLen  = 1 << 21
	maxShareTableLen = 1 << 22
)

// RateView is a read-only precomputed view of a rate function over the
// bounded load domain of one game. The total load on any channel of a legal
// allocation never exceeds the total number of radios, so R(0..maxLoad) and
// the per-channel DP values v(m, x) = x/(m+x) · R(m+x) (own radios x against
// external load m) both live in finite tables computed once at game
// construction. Lookups are plain slice reads with no locking, so one view
// is shared read-only across all engine workers; every tabulated value is
// produced by the same floating-point expression as the on-demand code
// path, keeping results bit-identical whether or not the table is hit.
//
// Rate functions are assumed pure (the ratefn.Func contract): the view
// samples R once and serves the sampled values forever.
type RateView struct {
	rate    ratefn.Func
	maxLoad int // table covers loads 0..maxLoad; -1 when passthrough
	maxOwn  int // share rows cover own radios 0..maxOwn
	maxExt  int // share rows cover external loads 0..maxExt; -1 when absent
	table   []float64
	share   []float64 // row m, entry x: share(x, m+x); stride maxOwn+1
}

// NewRateView precomputes R(0..maxLoad) and the share plane for up to
// maxOwn own radios against external loads 0..maxLoad-maxOwn. Either table
// is skipped (falling back to direct evaluation) when its size would exceed
// the internal caps or when the bounds are non-positive.
func NewRateView(rate ratefn.Func, maxLoad, maxOwn int) *RateView {
	rv := &RateView{rate: rate, maxLoad: -1, maxOwn: maxOwn, maxExt: -1}
	if rate == nil || maxLoad < 0 || maxLoad+1 > maxRateTableLen {
		return rv
	}
	rv.maxLoad = maxLoad
	rv.table = make([]float64, maxLoad+1)
	for l := 0; l <= maxLoad; l++ {
		rv.table[l] = rate.Rate(l)
	}
	if maxOwn < 0 || maxOwn > maxLoad {
		return rv
	}
	maxExt := maxLoad - maxOwn
	stride := maxOwn + 1
	if (maxExt+1)*stride > maxShareTableLen {
		return rv
	}
	rv.maxExt = maxExt
	rv.share = make([]float64, (maxExt+1)*stride)
	for m := 0; m <= maxExt; m++ {
		row := rv.share[m*stride : (m+1)*stride]
		for x := 1; x <= maxOwn; x++ {
			// Same expression as ShareAt's table path: bit-identical to
			// share(x, m+x, rate) because table[m+x] is rate.Rate(m+x).
			row[x] = float64(x) / float64(m+x) * rv.table[m+x]
		}
	}
	return rv
}

// Rate returns the underlying rate function.
func (rv *RateView) Rate() ratefn.Func { return rv.rate }

// frozenFunc adapts a RateView to ratefn.Func for code that consumes a rate
// function (the welfare DP, the potential): table-backed reads, identical
// values to the underlying function.
type frozenFunc struct{ rv *RateView }

func (f frozenFunc) Rate(k int) float64 { return f.rv.RateAt(k) }
func (f frozenFunc) Name() string       { return f.rv.rate.Name() }

// Frozen returns the view as a lock-free ratefn.Func: every Rate call is a
// table read within the view's domain (and a passthrough beyond it).
func (rv *RateView) Frozen() ratefn.Func { return frozenFunc{rv} }

// RateAt returns R(l), reading the precomputed table when l is within the
// view's domain and falling back to the rate function otherwise.
func (rv *RateView) RateAt(l int) float64 {
	if uint(l) < uint(len(rv.table)) {
		return rv.table[l]
	}
	return rv.rate.Rate(l)
}

// ShareAt returns own/total · R(total) with the share(0,·)=share(·,0)=0
// convention, using the rate table when total is within the domain.
func (rv *RateView) ShareAt(own, total int) float64 {
	if own == 0 || total == 0 {
		return 0
	}
	if uint(total) < uint(len(rv.table)) {
		return float64(own) / float64(total) * rv.table[total]
	}
	return share(own, total, rv.rate)
}

// ScreenSingleMoves is the Eq. 7 screen: it looks for a single-radio
// change of user i whose utility delta exceeds eps — either moving one
// radio from an occupied channel (from >= 0) to channel to, or (when the
// user deploys fewer than budget radios) adding an idle spare to channel
// to (from == -1). It is a conservative O(|C|²) reject-only filter for the
// NE oracle: a candidate is re-evaluated with MovedRowValue (and, failing
// that, the full best-response DP) before any verdict changes, so the
// screen's own floating-point grouping cannot flip results.
func (rv *RateView) ScreenSingleMoves(a *Alloc, i, budget int, eps float64) (from, to int, ok bool) {
	C := a.Channels()
	total := 0
	for b := 0; b < C; b++ {
		kib := a.Radios(i, b)
		if kib == 0 {
			continue
		}
		total += kib
		kb := a.Load(b)
		lossB := rv.ShareAt(kib-1, kb-1) - rv.ShareAt(kib, kb)
		for c := 0; c < C; c++ {
			if c == b {
				continue
			}
			kic := a.Radios(i, c)
			kc := a.Load(c)
			if lossB+rv.ShareAt(kic+1, kc+1)-rv.ShareAt(kic, kc) > eps {
				return b, c, true
			}
		}
	}
	if total < budget {
		// Spare-radio screen (Lemma 1 direction): deploying one more radio
		// on channel c changes the user's utility by the Eq. 7 gain term
		// alone. Always profitable under positive rates, so under-deployed
		// profiles exit here instead of reaching the full DP pass.
		for c := 0; c < C; c++ {
			kic := a.Radios(i, c)
			kc := a.Load(c)
			if rv.ShareAt(kic+1, kc+1)-rv.ShareAt(kic, kc) > eps {
				return -1, c, true
			}
		}
	}
	return -1, -1, false
}

// MovedRowValue evaluates user i's row after a single-radio change (from
// -> to; from == -1 adds a spare) in exactly the floating-point fold the
// best-response DP uses: channels accumulate right to left, each step
// computing share + accumulator. Float addition is monotone, so the DP's
// optimum f[0][k] is always >= this value — meaning a row value that beats
// the oracle threshold proves the DP would too, and the screened oracle can
// reject without running the DP while staying bit-identical in verdict.
func (rv *RateView) MovedRowValue(a *Alloc, i, from, to int) float64 {
	var val float64
	for c := a.Channels() - 1; c >= 0; c-- {
		own := a.Radios(i, c)
		total := a.Load(c)
		switch c {
		case from:
			own--
			total--
		case to:
			own++
			total++
		}
		val = rv.ShareAt(own, total) + val
	}
	return val
}

// Workspace holds the reusable scratch of the allocation-free kernels: the
// best-response DP's per-channel value rows v and suffix-value slab f, the
// welfare DP's rate/suffix/load slabs, external-load, strategy-row,
// per-user utility and int buffers. All slabs are flat single allocations,
// grown on demand and reused across calls, so the *Into / *With entry
// points run with zero steady-state allocations. The (budget, row) index
// of exchangeable users is not scratch: it mirrors one allocation's rows
// and lives with it (see Classes).
//
// A Workspace is not safe for concurrent use: hold one per goroutine
// (engine workers, dynamics runs, enumeration shards each own one).
type Workspace struct {
	v     []float64 // C rows of stride capK+1: v[c][x]
	voff  []int     // start of channel c's v row in the plane the DP reads
	f     []float64 // C+1 rows of stride capK+1: f[c][b]
	ext   []int     // external loads, len capC
	row   []int     // result strategy row, len capC
	marks []bool    // per-user oracle bookkeeping, see userMarks
	utils []float64 // per-user utility buffer, see Utils
	ints  []int     // per-user int scratch, see UserInts
	capC  int
	capK  int

	// Welfare DP slabs (OptimalLoadWelfareInto): the precomputed rate row
	// R(0..T), the C rows of suffix values with stride T+1, and the result
	// load vector. Sized independently of the best-response slabs because
	// the welfare domain is totals, not budgets.
	wrate []float64
	wf    []float64
	wload []int

	// obs accumulates kernel metrics locally (plain increments — the
	// workspace is single-owner); FlushObs folds them into the global
	// counters. poolFresh marks a workspace born inside WorkspacePool.Get
	// so the pool can tell a miss from a recycled hit.
	obs       wsCounts
	poolFresh bool
}

// UserMarks returns an n-length, false-initialised per-user scratch slice,
// reused across calls: the screened oracle marks users already cleared by
// the DP during the screen pass so the prove pass does not repeat them.
func (ws *Workspace) UserMarks(n int) []bool {
	if cap(ws.marks) < n {
		ws.marks = make([]bool, n)
	}
	marks := ws.marks[:n]
	for i := range marks {
		marks[i] = false
	}
	return marks
}

// NewWorkspace returns an empty workspace; its buffers are sized on first
// use and grown as needed.
func NewWorkspace() *Workspace { return &Workspace{capC: -1, capK: -1} }

// ensure grows the slabs to cover C channels and budget k.
func (ws *Workspace) ensure(C, k int) {
	if C <= ws.capC && k <= ws.capK {
		return
	}
	if C > ws.capC {
		ws.capC = C
	}
	if k > ws.capK {
		ws.capK = k
	}
	stride := ws.capK + 1
	ws.v = make([]float64, ws.capC*stride)
	ws.f = make([]float64, (ws.capC+1)*stride)
	ints := make([]int, 3*ws.capC)
	ws.voff = ints[:ws.capC:ws.capC]
	ws.ext = ints[ws.capC : 2*ws.capC : 2*ws.capC]
	ws.row = ints[2*ws.capC:]
}

// Utils returns an n-length float64 scratch slice reused across calls: the
// backing store of UtilitiesInto and the orbit Pareto matcher's per-profile
// utility vectors. Contents are unspecified on entry.
func (ws *Workspace) Utils(n int) []float64 {
	if cap(ws.utils) < n {
		ws.utils = make([]float64, n)
	}
	return ws.utils[:n]
}

// UserInts returns an n-length int scratch slice reused across calls: the
// best-response sweep's visit order and quiet stamps, the live verifier's
// class representatives. Contents are unspecified on entry.
func (ws *Workspace) UserInts(n int) []int {
	if cap(ws.ints) < n {
		ws.ints = make([]int, n)
	}
	return ws.ints[:n]
}

// ensureWelfare sizes the welfare-DP slabs for C channels placing total
// radios, returning the rate row R(0..total) (uninitialised), the C-row
// suffix slab of stride total+1, and the C-length load buffer.
func (ws *Workspace) ensureWelfare(C, total int) (rates, f []float64, loads []int) {
	if n := total + 1; cap(ws.wrate) < n {
		ws.wrate = make([]float64, n)
	}
	if n := C * (total + 1); cap(ws.wf) < n {
		ws.wf = make([]float64, n)
	}
	if cap(ws.wload) < C {
		ws.wload = make([]int, C)
	}
	return ws.wrate[:total+1], ws.wf[:C*(total+1)], ws.wload[:C]
}

// UtilitiesInto computes every user's utility into the workspace's
// reusable buffer — the allocation-free form of Game.Utilities. The
// returned slice aliases ws and is valid until its next Utils use.
func (rv *RateView) UtilitiesInto(ws *Workspace, a *Alloc) []float64 {
	out := ws.Utils(a.Users())
	for i := range out {
		out[i] = rv.UtilityOf(a, i)
	}
	return out
}

// fillShares lays out the v rows for the given external loads and budget
// k, v[c][x] = share(x, ext[c]+x): row c starts at ws.voff[c] in the
// returned plane. When every row lies inside the view's share plane the DP
// reads it in place; otherwise the rows are built in the workspace,
// block-copied from the plane where they can be and computed on demand
// elsewhere (bit-identical either way).
func (rv *RateView) fillShares(ws *Workspace, ext []int, k int) []float64 {
	off := ws.voff[:len(ext)]
	shareStride := rv.maxOwn + 1
	inPlane := rv.share != nil && k <= rv.maxOwn
	for c, m := range ext {
		if m > rv.maxExt {
			inPlane = false
			break
		}
		off[c] = m * shareStride
	}
	if inPlane {
		return rv.share
	}
	stride := ws.capK + 1
	for c, m := range ext {
		off[c] = c * stride
		vrow := ws.v[c*stride : c*stride+k+1]
		if rv.share != nil && m <= rv.maxExt && k <= rv.maxOwn {
			copy(vrow, rv.share[m*shareStride:m*shareStride+k+1])
			continue
		}
		vrow[0] = 0
		for x := 1; x <= k; x++ {
			vrow[x] = rv.ShareAt(x, m+x)
		}
	}
	return ws.v
}

// fillSharesFunc is fillShares for a bare rate function (no view): the
// generic path behind BestResponseToLoadsInto. The rows are always built
// in the workspace.
func fillSharesFunc(ws *Workspace, rate ratefn.Func, ext []int, k int) []float64 {
	stride := ws.capK + 1
	for c, m := range ext {
		ws.voff[c] = c * stride
		vrow := ws.v[c*stride : c*stride+k+1]
		vrow[0] = 0
		for x := 1; x <= k; x++ {
			vrow[x] = share(x, m+x, rate)
		}
	}
	return ws.v
}

// bestResponseDP runs the suffix dynamic program over the laid-out v rows
// and backtracks one optimal row. The returned slice aliases the workspace
// and is valid until the next call using it.
//
// The forward pass (bestResponseFold) is a pure max-reduction: for each
// (c, b) it folds vrow[x] + next[b-x] over x with no choice bookkeeping
// inside the O(C·k²) hot loop — the accumulator stays in a register and
// the loop body is two contiguous loads, an add and a compare, the shape
// gc's auto-vectoriser and the CPU's out-of-order core both like. The
// optimal row is recovered afterwards by an O(C·k) traceback that rescans
// each chosen cell for the first x attaining its value; all candidates are
// <= the cell value and the old strict-> scan kept the first argmax, so
// "first x with equality" picks the same x and rows are bit-identical to
// the former choice-slab form.
func bestResponseDP(ws *Workspace, v []float64, C, k int) ([]int, float64) {
	val := bestResponseFold(ws, v, C, k)
	stride := ws.capK + 1
	row := ws.row[:C]
	b := k
	for c := 0; c < C; c++ {
		vrow := v[ws.voff[c]:]
		next := ws.f[(c+1)*stride:]
		target := ws.f[c*stride+b]
		x := 0
		for ; x < b; x++ {
			if vrow[x]+next[b-x] == target {
				break
			}
		}
		row[c] = x
		b -= x
	}
	return row, val
}

// bestResponseFold is the DP's forward pass: it fills the suffix-value
// slab f and returns the optimum f[0][k]. BestResponseValueInto stops here
// and skips the traceback.
func bestResponseFold(ws *Workspace, v []float64, C, k int) float64 {
	ws.obs.dpCalls++
	stride := ws.capK + 1
	fC := ws.f[C*stride : C*stride+k+1]
	for b := range fC {
		fC[b] = 0
	}
	for c := C - 1; c >= 0; c-- {
		vrow := v[ws.voff[c] : ws.voff[c]+k+1]
		next := ws.f[(c+1)*stride:]
		cur := ws.f[c*stride:]
		for b := 0; b <= k; b++ {
			best := vrow[0] + next[b]
			for x := 1; x <= b; x++ {
				if val := vrow[x] + next[b-x]; val > best {
					best = val
				}
			}
			cur[b] = best
		}
	}
	return ws.f[k]
}

// BestResponseAllocInto computes the best response of user i with budget k
// in allocation a (external loads are a's channel loads minus i's own
// radios). The returned row aliases the workspace.
func (rv *RateView) BestResponseAllocInto(ws *Workspace, a *Alloc, i, k int) ([]int, float64) {
	return bestResponseDP(ws, rv.layoutDP(ws, a, i, k), a.Channels(), k)
}

// BestResponseValueInto is BestResponseAllocInto's value alone, bit for
// bit, without tracing back the optimal row — all a deviation verdict
// needs, since it compares the value against the current utility.
func (rv *RateView) BestResponseValueInto(ws *Workspace, a *Alloc, i, k int) float64 {
	return bestResponseFold(ws, rv.layoutDP(ws, a, i, k), a.Channels(), k)
}

// layoutDP sizes the workspace for user i's DP with budget k, computes the
// external loads and lays out the v rows (see fillShares).
func (rv *RateView) layoutDP(ws *Workspace, a *Alloc, i, k int) []float64 {
	C := a.Channels()
	ws.ensure(C, k)
	ext := ws.ext[:C]
	for c := 0; c < C; c++ {
		ext[c] = a.Load(c) - a.Radios(i, c)
	}
	return rv.fillShares(ws, ext, k)
}

// UtilityOf computes U_i(S) per Eq. 3 with table-backed rates — the one
// implementation behind Game.Utility and the enumeration walks.
func (rv *RateView) UtilityOf(a *Alloc, i int) float64 {
	var u float64
	for c := 0; c < a.Channels(); c++ {
		ki := a.Radios(i, c)
		if ki == 0 {
			continue
		}
		kc := a.Load(c)
		u += float64(ki) / float64(kc) * rv.RateAt(kc)
	}
	return u
}

// deviates reports whether user i with budget k can improve by more than
// eps, via the allocation-free DP.
func (rv *RateView) deviates(ws *Workspace, a *Alloc, i, k int, eps float64) bool {
	current := rv.UtilityOf(a, i)
	_, best := rv.BestResponseAllocInto(ws, a, i, k)
	return best > current+eps
}

// ScreenedNE is the screen-then-prove NE oracle behind
// Game.IsNashEquilibriumWith, bit-identical in verdict to the exhaustive
// per-user DP sweep with zero steady-state allocations:
//
//   - screen: each user's Eq. 7 single-radio deltas (ScreenSingleMoves). A
//     flagged candidate is confirmed by MovedRowValue — the DP optimum
//     provably dominates it, so a confirmed reject is exactly the DP's
//     conclusion — with the full DP as fallback; users the fallback clears
//     are marked and skipped by the prove pass.
//   - prove: remaining users pay the full O(|C|·k²) DP each.
//
// User i's budget is budgets[i]. The allocation is not validated; callers
// guarantee it is legal.
func (rv *RateView) ScreenedNE(ws *Workspace, a *Alloc, budgets []int, eps float64) bool {
	users := a.Users()
	cleared := ws.UserMarks(users)
	for i, k := range budgets[:users] {
		from, to, ok := rv.ScreenSingleMoves(a, i, k, eps)
		if !ok {
			continue
		}
		if rv.MovedRowValue(a, i, from, to) > rv.UtilityOf(a, i)+eps {
			ws.obs.screenRejects++
			return false
		}
		if rv.deviates(ws, a, i, k, eps) {
			return false
		}
		cleared[i] = true
	}
	for i := 0; i < users; i++ {
		if !cleared[i] && rv.deviates(ws, a, i, budgets[i], eps) {
			return false
		}
	}
	ws.obs.screenAccepts++
	return true
}
