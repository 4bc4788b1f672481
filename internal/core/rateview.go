package core

import (
	"cmp"
	"math"
	"slices"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// maxShareTableLen caps the share plane. A view whose plane would exceed
// it keeps the rate table alone and builds each DP's rows from the table
// (bit-identical values, one division per entry instead of a slice read).
// The cap is far above every practical game in the experiment suite (256
// users × 32 radios needs ~270k share entries). A variable so that tests
// can force the plane-less layout on small games.
var maxShareTableLen = 1 << 22

// RateView is a read-only precomputed view of a rate function over the
// bounded load domain of one game. The total load on any channel of a legal
// allocation never exceeds the total number of radios, so R over that
// domain and the per-channel DP values v(m, x) = x/(m+x) · R(m+x) (own
// radios x against external load m) both live in finite tables computed
// once at game construction. Lookups are plain slice reads with no
// locking, so one view is shared read-only across all engine workers; every
// tabulated value is produced by the same floating-point expression as the
// generic rate-function code path, keeping results bit-identical.
//
// The view is the one cache of R: reads outside its domain are a caller
// error (an allocation that fails Game.CheckAlloc) and either panic or
// read an unrelated entry.
//
// Rate functions are assumed pure (the ratefn.Func contract): the view
// samples R once and serves the sampled values forever.
type RateView struct {
	rate   ratefn.Func
	maxOwn int       // share rows cover own radios 0..maxOwn
	table  []float64 // R(0..maxLoad+maxOwn)
	share  []float64 // row m, entry x: share(x, m+x); stride maxOwn+1; nil when over the cap
	// concave[m] is the largest K <= maxOwn such that share row m is
	// finite, non-negative and has non-increasing float increments
	// fl(v[x] - v[x-1]) over 0..K: the rows the exchange certificate may
	// read for budgets up to K (see exchangeBound). Nil with the plane.
	concave []int32
}

// NewRateView tabulates R over loads 0..maxLoad+maxOwn and the share plane
// for up to maxOwn own radios against external loads 0..maxLoad; the plane
// is left out when its size would exceed maxShareTableLen. A game passes
// its radio total Σk_i and largest budget, so every load a legal
// allocation reaches, and every DP row of a user, is in the tables.
func NewRateView(rate ratefn.Func, maxLoad, maxOwn int) *RateView {
	rv := &RateView{rate: rate, maxOwn: maxOwn, table: make([]float64, maxLoad+maxOwn+1)}
	for l := range rv.table {
		rv.table[l] = rate.Rate(l)
	}
	stride := maxOwn + 1
	if maxLoad+1 > maxShareTableLen/stride {
		return rv
	}
	rv.share = make([]float64, (maxLoad+1)*stride)
	rv.concave = make([]int32, maxLoad+1)
	for m := 0; m <= maxLoad; m++ {
		row := rv.share[m*stride : (m+1)*stride]
		for x := 1; x <= maxOwn; x++ {
			// Same expression as ShareAt: bit-identical to
			// share(x, m+x, rate) because table[m+x] is rate.Rate(m+x).
			row[x] = float64(x) / float64(m+x) * rv.table[m+x]
		}
		rv.concave[m] = int32(concavePrefix(row))
	}
	return rv
}

// concavePrefix returns the largest K such that row[0..K] is finite and
// non-negative and its float increments fl(row[x] - row[x-1]), x = 1..K,
// are non-increasing. The comparisons are written so that a NaN ends the
// prefix.
func concavePrefix(row []float64) int {
	prev := math.Inf(1)
	for x := 1; x < len(row); x++ {
		d := row[x] - row[x-1]
		if !(row[x] >= 0 && row[x] <= math.MaxFloat64 && d <= prev) {
			return x - 1
		}
		prev = d
	}
	return len(row) - 1
}

// Rate returns the underlying rate function.
func (rv *RateView) Rate() ratefn.Func { return rv.rate }

// domain returns the maxLoad and maxOwn the view was built with.
func (rv *RateView) domain() (maxLoad, maxOwn int) {
	return len(rv.table) - 1 - rv.maxOwn, rv.maxOwn
}

// frozenFunc adapts a RateView to ratefn.Func for code that consumes a rate
// function (the welfare DP, the distributed policies): table reads,
// identical values to the underlying function.
type frozenFunc struct{ rv *RateView }

func (f frozenFunc) Rate(k int) float64 { return f.rv.RateAt(k) }
func (f frozenFunc) Name() string       { return f.rv.rate.Name() }

// Frozen returns the view as a lock-free ratefn.Func: every Rate call is a
// table read, so it is defined only on the view's load domain.
func (rv *RateView) Frozen() ratefn.Func { return frozenFunc{rv} }

// RateAt returns R(l) from the table; l must lie in the view's domain.
func (rv *RateView) RateAt(l int) float64 { return rv.table[l] }

// ShareAt returns own/total · R(total) with the share(0,·)=share(·,0)=0
// convention; total must lie in the view's domain.
func (rv *RateView) ShareAt(own, total int) float64 {
	if own == 0 || total == 0 {
		return 0
	}
	return float64(own) / float64(total) * rv.table[total]
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
// (engine workers, dynamics runs and exhaustive searches each own one).
type Workspace struct {
	v     []float64 // C rows of stride capK+1: v[c][x]
	voff  []int     // start of channel c's v row in the plane the DP reads
	f     []float64 // C+1 rows of stride capK+1: f[c][b]
	ext   []int     // external loads, len capC
	row   []int     // result strategy row, len capC
	marks []bool    // per-user oracle bookkeeping, see userMarks
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

	// sum caches the exchange certificate's channel summary of the last
	// allocation state it was built for (see summary).
	sum channelSummary
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

// UserInts returns an n-length int scratch slice reused across calls: the
// best-response sweep's quiet stamps, the live verifier's
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

// fillShares lays out the v rows for the given external loads and budget
// k, v[c][x] = share(x, ext[c]+x): row c starts at ws.voff[c] in the
// returned plane. The DP reads the rows in place from the view's share
// plane; a view without a plane builds them in the workspace from the rate
// table (bit-identical either way). The loads and budget come from a legal
// allocation of the view's game, so they lie inside the plane.
func (rv *RateView) fillShares(ws *Workspace, ext []int, k int) []float64 {
	if rv.share == nil {
		return fillSharesFunc(ws, rv.Frozen(), ext, k)
	}
	stride := rv.maxOwn + 1
	for c, m := range ext {
		ws.voff[c] = m * stride
	}
	return rv.share
}

// fillSharesFunc builds the v rows in the workspace from a rate function:
// the generic path behind BestResponseToLoadsInto, and fillShares' path for
// a view without a share plane.
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
// slab f and returns the optimum f[0][k].
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

// DeviationInto is the deviation test behind every best-response verdict:
// improves reports that user i with budget k >= 1 has a best response worth
// more than UtilityOf(a, i)+eps. The exchange certificate (exchangeBound)
// decides most quiet verdicts from the user's occupied channels and a's
// channel summary, which ws caches per allocation state (see
// Workspace.summary); every other case runs the DP fold and traceback, so
// an improving row and its value are always the DP's, bit for bit
// BestResponseAllocInto's (row aliases ws). On a certified quiet verdict
// row is nil and best is the user's utility, which the DP's value exceeds
// by at most the certificate's slack.
func (rv *RateView) DeviationInto(ws *Workspace, a *Alloc, i, k int, eps float64) (row []int, best float64, improves bool) {
	u, quiet := rv.certify(ws, a, i, k, eps)
	if quiet {
		return nil, u, false
	}
	row, best = bestResponseDP(ws, rv.layoutDP(ws, a, i, k), a.Channels(), k)
	return row, best, best > u+eps
}

// certify runs the exchange certificate for user i with budget k: it
// returns the user's utility U and whether the certificate proves the fold
// finds nothing above fl(U + eps), counting each such quiet verdict.
func (rv *RateView) certify(ws *Workspace, a *Alloc, i, k int, eps float64) (u float64, quiet bool) {
	u, bound := rv.exchangeBound(ws.summary(rv, a), a.m[i], a.load, k)
	if bound < u+eps {
		ws.obs.screenQuiet++
		return u, true
	}
	return u, false
}

// channelSummary is the part of the exchange certificate that depends only
// on the channel loads L_c, shared by every user of one allocation. With
// t_c = v_{L_c}[1], the share-plane entry of one radio against the whole
// load, it holds t (indexed by channel), the channels ordered by t_c
// descending (ties by ascending c) and bad[k] = #{c : concave[L_c] < k} for
// k = 0..maxOwn+1. The key (a, gen, rv) names the allocation state and
// view it was built from; a view without a share plane leaves it empty.
type channelSummary struct {
	a     *Alloc
	gen   uint64
	rv    *RateView
	t     []float64
	order []int
	bad   []int
}

// summary returns a's channel summary under rv, rebuilding the cached one
// when a, its mutation count or rv differ from the key it was built for.
// The key's pointer keeps a alive, so its address cannot be reused under a
// stale key; WorkspacePool.Put drops it.
func (ws *Workspace) summary(rv *RateView, a *Alloc) *channelSummary {
	s := &ws.sum
	if s.a != a || s.gen != a.gen || s.rv != rv {
		rv.summarize(s, a.load)
		s.a, s.gen, s.rv = a, a.gen, rv
	}
	return s
}

// summarize fills s for channel loads load: O(|C| log |C| + maxOwn).
func (rv *RateView) summarize(s *channelSummary, load []int) {
	if rv.share == nil {
		return
	}
	C, stride := len(load), rv.maxOwn+1
	if cap(s.t) < C {
		s.t, s.order = make([]float64, C), make([]int, C)
	}
	if cap(s.bad) < stride+1 {
		s.bad = make([]int, stride+1)
	}
	t, order, bad := s.t[:C], s.order[:C], s.bad[:stride+1]
	clear(bad)
	for c, l := range load {
		t[c] = rv.share[l*stride+1]
		order[c] = c
		bad[rv.concave[l]+1]++
	}
	for k := 1; k < len(bad); k++ {
		bad[k] += bad[k-1]
	}
	// cmp.Compare orders a NaN below every number, so the order is total;
	// a NaN t_c is never read (its row is flagged, see exchangeBound).
	slices.SortFunc(order, func(x, y int) int {
		if d := cmp.Compare(t[y], t[x]); d != 0 {
			return d
		}
		return x - y
	})
	s.t, s.order, s.bad = t, order, bad
}

// exchangeBound returns the utility U of a user that plays row y against
// channel loads load (bit for bit UtilityOf's value), and an upper bound on
// the value F the best-response fold finds for budget k ≥ 1, or +Inf when
// it has none. s is the channel summary of load. DeviationInto answers
// quiet when bound < fl(U + eps).
//
// The bound is an exchange certificate (Gross 1956; Ibaraki & Katoh 1988):
// on concave rows, a row with no profitable single-radio exchange is a best
// response. It reads only the DP's own rows, v_c = share row m_c of the
// external loads m_c = load[c] − y_c, and needs each flagged concave
// through k (concavePrefix). With the float increments d̂_c(x) = fl(v_c[x]
// − v_c[x−1]), V1 = max_c v_c[1] and
//
//	L = min over c with y_c > 0 of d̂_c(y_c),
//	H = max over c with y_c < k of d̂_c(y_c + 1),
//	Δ = k·max(H − L, 0) + (k − Σy)·max(H, 0)
//
// (an empty min is +Inf and an empty max −Inf, which zero their terms), it
// requires L ≥ 0 and returns fl(U + δ + 2Δ) with δ = quietBand(C, k, V1).
//
// Only the occupied channels are read from the plane. An unoccupied
// channel has m_c = L_c and d̂_c(1) = fl(v_c[1] − 0) = t_c exactly, so it
// adds t_c to both maxima, and its concavity flag is the one s counts: the
// unoccupied channels are all concave through k when bad[k] equals the
// number of occupied channels with concave[L_c] < k, and then the first
// unoccupied channel in s's order carries the largest t_c among them.
// Float max and min are exact and U sums the same terms in ascending c, so
// U and the bound are bit for bit those of one pass over all |C| channels.
//
// Why F ≤ U + δ + 2Δ. For a row z with Σz ≤ k write S(z) = Σ_c v_c[z_c]
// and Ŵ(z) = Σ_c Σ_{x≤z_c} d̂_c(x), both exact, and T(z) = Σ_c Σ_{x≤z_c}
// |d_c(x)| for the exact increments d.
//   - Each fold cell is fl(v_c[x] + f[c+1][b−x]) for one x, so F is the
//     float suffix sum of some such row y*, and U is the float sum of y's
//     values in ascending c. A recursive sum of C non-negative terms errs
//     by at most γ·S, γ = (C−1)u/(1−(C−1)u) with u = 2⁻⁵³: F ≤ S(y*) +
//     γS(y*) and S(y) ≤ U + γS(y).
//   - Exchange: y* adds A radios to y on some channels and removes R on
//     others. On a row concave through k an added radio's increment
//     d̂_c(x), x > y_c, is at most d̂_c(y_c+1) ≤ H, and a removed one's,
//     x ≤ y_c, at least d̂_c(y_c) ≥ L. So Ŵ(y*) − Ŵ(y) ≤ A·H − R·L.
//     With A − R = Σy* − Σy ≤ k − Σy and R ≤ Σy ≤ k that is at most
//     R(H − L) + (k − Σy)H ≤ Δ when H ≥ 0, and at most −R·L ≤ 0 when
//     H < 0 (this case needs L ≥ 0).
//   - Rounding keeps signs and |d − d̂| ≤ u|d|, so |S(z) − Ŵ(z)| ≤ u·T(z).
//     With v_c ≥ 0 and d̂_c(x) ≤ d̂_c(1) = v_c[1] a row's increments give
//     Σ_{x≤z_c}|d_c(x)| ≤ 2z_c·v_c[1]/(1−2u) and v_c[z_c] ≤
//     z_c·v_c[1]/(1−2u); summed, T(z) ≤ 2k·V1/(1−2u), S(z) ≤ k·V1/(1−2u).
//
// Chained, F ≤ U + Δ + γ(S(y*) + S(y)) + u(T(y*) + T(y)) ≤ U + Δ +
// (2γ + 4u)·k·V1/(1−2u), about U + Δ + 2(C+1)·k·V1·u for any C below 2⁴⁰.
// δ is twice that term and the computed 2Δ is at least twice Δ less three
// roundings, so each covers its own roundings and its share of the two
// additions'; the 2⁻¹⁰⁰⁰ term of δ covers an underflowing product.
// Rounding is monotone, so fl(U + δ + 2Δ) < fl(U + eps) gives F ≤ fl(U +
// eps): the fold would find no deviation either. A row that is not
// finite, non-negative and concave through k, a budget past the view's,
// and a view without a share plane give +Inf; a NaN eps fails the
// comparison; so those cases reach the fold.
func (rv *RateView) exchangeBound(s *channelSummary, y, load []int, k int) (u, bound float64) {
	if rv.share == nil || k > rv.maxOwn {
		return rv.utility(y, load), math.Inf(1)
	}
	stride := rv.maxOwn + 1
	concave, placed, flagged := true, 0, 0
	v1, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for c, yc := range y {
		if yc == 0 {
			continue
		}
		m := load[c] - yc
		v := rv.share[m*stride : (m+1)*stride]
		concave = concave && int(rv.concave[m]) >= k
		if int(rv.concave[load[c]]) < k {
			flagged++
		}
		v1 = max(v1, v[1])
		u += v[yc]
		lo = min(lo, v[yc]-v[yc-1])
		placed += yc
		if yc < k {
			hi = max(hi, v[yc+1]-v[yc])
		}
	}
	if !concave || s.bad[k] != flagged || !(lo >= 0) {
		return u, math.Inf(1)
	}
	for _, c := range s.order {
		if y[c] == 0 {
			v1, hi = max(v1, s.t[c]), max(hi, s.t[c])
			break
		}
	}
	delta := float64(k)*max(hi-lo, 0) + float64(k-placed)*max(hi, 0)
	return u, u + quietBand(len(y), k, v1) + 2*delta
}

// quietBand is the certificate's δ for C channels, budget k and largest
// one-radio share v1: twice the rounding term of the bound proven at
// exchangeBound.
func quietBand(C, k int, v1 float64) float64 {
	return float64(4*(C+1)*k)*0x1p-53*v1 + 0x1p-1000
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
	return rv.utility(a.m[i], a.load)
}

// utility sums row y's terms y_c/k_c · R(k_c) over the occupied channels in
// ascending c. A view with a share plane reads each term as entry (k_c −
// y_c, y_c); one without divides it out of the rate table in the
// expression that built the plane, so the two layouts agree bit for bit.
func (rv *RateView) utility(y, load []int) float64 {
	var u float64
	if rv.share == nil {
		for c, yc := range y {
			if yc > 0 {
				// The conversion rounds the term before the sum, as the
				// plane's stored entries are, so no fused multiply-add
				// can tell the layouts apart.
				u += float64(float64(yc) / float64(load[c]) * rv.table[load[c]])
			}
		}
		return u
	}
	stride := rv.maxOwn + 1
	for c, yc := range y {
		if yc > 0 {
			u += rv.share[(load[c]-yc)*stride+yc]
		}
	}
	return u
}

// ScreenedNE is the screen-then-prove NE oracle behind
// Game.IsNashEquilibriumWith, bit-identical in verdict to the exhaustive
// per-user DP sweep with zero steady-state allocations:
//
//   - screen: each user's Eq. 7 single-radio deltas (ScreenSingleMoves). A
//     flagged candidate is confirmed by MovedRowValue — the DP optimum
//     provably dominates it, so a confirmed reject is exactly the DP's
//     conclusion — with the deviation test as fallback; users the fallback
//     clears are marked and skipped by the prove pass.
//   - prove: remaining users pay the deviation test each (DeviationInto:
//     the exchange certificate, else the full O(|C|·k²) DP).
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
		if _, _, improves := rv.DeviationInto(ws, a, i, k, eps); improves {
			return false
		}
		cleared[i] = true
	}
	for i := 0; i < users; i++ {
		if cleared[i] {
			continue
		}
		if _, _, improves := rv.DeviationInto(ws, a, i, budgets[i], eps); improves {
			return false
		}
	}
	ws.obs.screenAccepts++
	return true
}
