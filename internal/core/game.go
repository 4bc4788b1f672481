package core

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Game fixes the parameters of one channel allocation game: |N| users, |C|
// channels, a radio budget k_i <= |C| per user and the common rate function
// R. The paper's model gives every user the same budget k (NewGame); the
// per-user form (NewHeteroGame) is the same game with the budgets allowed
// to differ, and every kernel — utilities, the best-response DP, the NE
// oracle, Algorithm 1, welfare optima and the exhaustive searches — reads
// Budget(i) or the budget total. Construction precomputes a RateView —
// R(0..Σk_i+max k_i) plus the best-response share plane — so the hot paths
// read tables instead of calling through the rate interface. The rate
// function must therefore be pure; it is sampled once at construction, and
// the view is the game's only cache of R.
//
// A game from NewGame or NewHeteroGame never changes. The game a LiveGame
// hands out (LiveGame.Frozen) is the live game's own: it is valid until the
// next join, leave or budget change, which edits it in place.
type Game struct {
	channels int
	budgets  []int
	total    int // Σ_i k_i
	rate     ratefn.Func
	view     *RateView
}

// NewGame validates and constructs the paper's uniform game: every user
// owns k = radios radios. The paper's standing assumption k <= |C| is
// enforced here.
func NewGame(users, channels, radios int, rate ratefn.Func) (*Game, error) {
	switch {
	case users < 1:
		return nil, fmt.Errorf("core: users = %d, want >= 1", users)
	case channels < 1:
		return nil, fmt.Errorf("core: channels = %d, want >= 1", channels)
	case radios < 1:
		return nil, fmt.Errorf("core: radios = %d, want >= 1", radios)
	case radios > channels:
		return nil, fmt.Errorf("core: radios per user (%d) exceeds channels (%d); the paper requires k <= |C|", radios, channels)
	case rate == nil:
		return nil, fmt.Errorf("core: nil rate function")
	}
	budgets := make([]int, users)
	for i := range budgets {
		budgets[i] = radios
	}
	return newGame(channels, budgets, rate), nil
}

// NewHeteroGame validates per-user budgets (1 <= k_i <= channels) and
// builds a game where user i owns budgets[i] radios.
func NewHeteroGame(channels int, budgets []int, rate ratefn.Func) (*Game, error) {
	if channels < 1 {
		return nil, fmt.Errorf("core: channels = %d, want >= 1", channels)
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("core: no users")
	}
	for i, k := range budgets {
		if k < 1 {
			return nil, fmt.Errorf("core: user %d budget %d, want >= 1", i, k)
		}
		if k > channels {
			return nil, fmt.Errorf("core: user %d budget %d exceeds %d channels", i, k, channels)
		}
	}
	if rate == nil {
		return nil, fmt.Errorf("core: nil rate function")
	}
	return newGame(channels, append([]int(nil), budgets...), rate), nil
}

// newGame assembles a game over validated, caller-owned budgets, with its
// rate view built over the game's own load domain.
func newGame(channels int, budgets []int, rate ratefn.Func) *Game {
	total, maxBudget := 0, 0
	for _, k := range budgets {
		total += k
		maxBudget = max(maxBudget, k)
	}
	view := NewRateView(rate, total, maxBudget)
	return &Game{channels: channels, budgets: budgets, total: total, rate: rate, view: view}
}

// Users returns |N|.
func (g *Game) Users() int { return len(g.budgets) }

// Channels returns |C|.
func (g *Game) Channels() int { return g.channels }

// Radios returns the common per-user budget k, or 0 when budgets differ.
// The paper's closed-form results (Theorem 1, Fact 1) and the distributed
// protocol assume a common k; per-user code reads Budget(i). It scans the
// budgets, O(N): callers that need k repeatedly read it once.
func (g *Game) Radios() int {
	for _, k := range g.budgets {
		if k != g.budgets[0] {
			return 0
		}
	}
	return g.Budget(0)
}

// Budget returns user i's radio budget k_i.
func (g *Game) Budget(i int) int { return g.budgets[i] }

// Budgets returns a copy of the budget vector.
func (g *Game) Budgets() []int { return append([]int(nil), g.budgets...) }

// Rate returns the game's rate function.
func (g *Game) Rate() ratefn.Func { return g.rate }

// View returns the game's precomputed rate view (R table + share plane over
// the bounded load domain). It is read-only and safe to share across
// goroutines.
func (g *Game) View() *RateView { return g.view }

// HasConflict reports whether Σ_i k_i > |C| (|N|·k > |C| in the uniform
// game), the regime of the paper's §3 analysis (otherwise Fact 1 applies:
// radios simply spread out).
func (g *Game) HasConflict() bool { return g.total > g.channels }

// NewEmptyAlloc returns an all-zero allocation with this game's dimensions.
func (g *Game) NewEmptyAlloc() *Alloc {
	a, err := NewAlloc(g.Users(), g.channels)
	if err != nil {
		// Game dimensions were validated at construction.
		panic("core: invalid game dimensions: " + err.Error())
	}
	return a
}

// CheckAlloc verifies that a is a legal strategy matrix for this game:
// matching dimensions and every user within its radio budget. A legal
// allocation loads no channel beyond Σk_i, the domain of the rate view.
// It scans every row; LiveGame.CheckAlloc runs it only when a write it
// did not check has reached the live allocation since the last pass.
func (g *Game) CheckAlloc(a *Alloc) error {
	if a == nil {
		return fmt.Errorf("core: nil allocation")
	}
	if a.Users() != g.Users() || a.Channels() != g.channels {
		return fmt.Errorf("core: allocation is %dx%d, game is %dx%d",
			a.Users(), a.Channels(), g.Users(), g.channels)
	}
	for i, row := range a.m {
		if err := g.CheckRow(i, row); err != nil {
			return err
		}
	}
	return nil
}

// CheckRow verifies that row is a legal strategy vector for user i: one
// entry per channel, deploying at most the user's budget. It is
// CheckAlloc's test of one row, in O(|C|), which writers that vouch for
// the rows they set (LiveGame's mutators and the best-response sweep) call
// on its own.
func (g *Game) CheckRow(i int, row []int) error {
	if len(row) != g.channels {
		return fmt.Errorf("core: row for user %d has %d channels, want %d", i, len(row), g.channels)
	}
	// Cells are non-negative, so their OR is at least every cell and at
	// most their sum: a row within budget passes, and a row with a cell
	// above k fails even when its sum wraps. With every cell at most
	// k <= |C|, the sum is at most |C|² and cannot wrap.
	k := g.budgets[i]
	total, bits := 0, 0
	for _, v := range row {
		total += v
		bits |= v
	}
	if total > k || bits > k {
		return fmt.Errorf("core: user %d deploys more than its budget of %d radios", i, k)
	}
	return nil
}

// Utility computes U_i(S) per Eq. 3: Σ_c k_{i,c}/k_c · R(k_c). Rates come
// from the precomputed table (identical values to calling R directly), so a
// must be a legal allocation of g (CheckAlloc); a channel loaded beyond the
// game's radio total is outside the table.
func (g *Game) Utility(a *Alloc, i int) float64 {
	return g.view.UtilityOf(a, i)
}

// Utilities computes every user's utility. Like Utility, it requires a
// legal allocation of g.
func (g *Game) Utilities(a *Alloc) []float64 {
	out := make([]float64, a.Users())
	for i := range out {
		out[i] = g.Utility(a, i)
	}
	return out
}

// Welfare computes the total rate achieved by all users,
// Σ_{c : k_c > 0} R(k_c), which equals Σ_i U_i(S). It requires a legal
// allocation of g (see Utility).
func (g *Game) Welfare(a *Alloc) float64 {
	var w float64
	for c := 0; c < a.Channels(); c++ {
		if kc := a.Load(c); kc > 0 {
			w += g.view.RateAt(kc)
		}
	}
	return w
}

// Potential evaluates the exact congestion potential
// Φ(S) = Σ_c Σ_{j=1}^{k_c} R(j)/j via the precomputed rate table. The
// paper needs Φ only in its convergence proofs, so no dynamics loop
// evaluates it; tests and cmd/chanalloc's report do. It sums in the same
// term order as the direct sum over the game's rate function, and so is
// bit-identical to it: internal/dynamics keeps that sum as its test
// reference Potential, and TestGamePotentialMatchesReference pins the two.
// It requires a legal allocation of g (see Utility).
func (g *Game) Potential(a *Alloc) float64 {
	var phi float64
	for c := 0; c < a.Channels(); c++ {
		for j := 1; j <= a.Load(c); j++ {
			phi += g.view.RateAt(j) / float64(j)
		}
	}
	return phi
}

// BenefitOfMove computes Δ of Eq. 7: the utility change for user i from
// moving one radio from channel b to channel c, holding everyone else fixed.
// It requires k_{i,b} > 0 and b != c. The allocation is not re-validated
// (the dynamics call this O(N·|C|²) times per round), but a load outside
// the game's domain, which only an illegal allocation can have, is an
// error: k_b must lie in 1..Σk_i and k_c in 0..Σk_i−1.
func (g *Game) BenefitOfMove(a *Alloc, i, b, c int) (float64, error) {
	if b == c {
		return 0, fmt.Errorf("core: benefit of moving %d -> %d: channels must differ", b, c)
	}
	if b < 0 || b >= a.Channels() || c < 0 || c >= a.Channels() {
		return 0, fmt.Errorf("core: channel out of range (b=%d, c=%d, |C|=%d)", b, c, a.Channels())
	}
	if i < 0 || i >= a.Users() {
		return 0, fmt.Errorf("core: user %d out of range [0, %d)", i, a.Users())
	}
	kib := a.Radios(i, b)
	if kib == 0 {
		return 0, fmt.Errorf("core: user %d has no radio on channel %d", i, b)
	}
	kic := a.Radios(i, c)
	kb, kc := a.Load(b), a.Load(c)
	// The reads below index the rate table at kb, kb-1, kc and kc+1.
	if uint(kb-1) >= uint(g.total) || uint(kc) >= uint(g.total) {
		return 0, fmt.Errorf("core: channel loads %d and %d outside the game's %d radios; not a legal allocation", kb, kc, g.total)
	}

	delta := -g.view.ShareAt(kib, kb) - g.view.ShareAt(kic, kc)
	delta += g.view.ShareAt(kib-1, kb-1) + g.view.ShareAt(kic+1, kc+1)
	return delta, nil
}

// share returns own/total · R(total), with the 0/0 convention share(0,0)=0.
func share(own, total int, r ratefn.Func) float64 {
	if own == 0 || total == 0 {
		return 0
	}
	return float64(own) / float64(total) * r.Rate(total)
}
