package core

import (
	"fmt"
	"sync"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Game fixes the parameters of one channel allocation game: |N| users, |C|
// channels, k radios per user and the common rate function R. Construction
// precomputes a RateView — R(0..|N|·k) plus the best-response share plane —
// so the hot paths (utilities, welfare, potential, the best-response DP)
// read tables instead of calling through the rate interface. The rate
// function must therefore be pure; it is sampled once in NewGame.
type Game struct {
	users    int
	channels int
	radios   int
	rate     ratefn.Func
	view     *RateView

	// All-placed welfare optimum, memoised on first use (see
	// allPlacedOptimum): written once under optOnce, read lock-free after,
	// like the rate view tables.
	optOnce  sync.Once
	optVal   float64
	optLoads []int
}

// NewGame validates and constructs a game. The paper's standing assumption
// k <= |C| is enforced here.
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
	return &Game{
		users:    users,
		channels: channels,
		radios:   radios,
		rate:     rate,
		view:     NewRateView(rate, users*radios, radios),
	}, nil
}

// Users returns |N|.
func (g *Game) Users() int { return g.users }

// Channels returns |C|.
func (g *Game) Channels() int { return g.channels }

// Radios returns k, the per-user radio budget.
func (g *Game) Radios() int { return g.radios }

// Budget returns user i's radio budget: k for every user of the uniform
// game.
func (g *Game) Budget(i int) int { return g.radios }

// Rate returns the game's rate function.
func (g *Game) Rate() ratefn.Func { return g.rate }

// View returns the game's precomputed rate view (R table + share plane over
// the bounded load domain). It is read-only and safe to share across
// goroutines.
func (g *Game) View() *RateView { return g.view }

// HasConflict reports whether |N|·k > |C|, the regime of the paper's §3
// analysis (otherwise Fact 1 applies: radios simply spread out).
func (g *Game) HasConflict() bool { return g.users*g.radios > g.channels }

// NewEmptyAlloc returns an all-zero allocation with this game's dimensions.
func (g *Game) NewEmptyAlloc() *Alloc {
	a, err := NewAlloc(g.users, g.channels)
	if err != nil {
		// Game dimensions were validated in NewGame.
		panic("core: invalid game dimensions: " + err.Error())
	}
	return a
}

// CheckAlloc verifies that a is a legal strategy matrix for this game:
// matching dimensions and every user within the k-radio budget.
func (g *Game) CheckAlloc(a *Alloc) error {
	if a == nil {
		return fmt.Errorf("core: nil allocation")
	}
	if a.Users() != g.users || a.Channels() != g.channels {
		return fmt.Errorf("core: allocation is %dx%d, game is %dx%d",
			a.Users(), a.Channels(), g.users, g.channels)
	}
	for i := 0; i < g.users; i++ {
		if total := a.UserTotal(i); total > g.radios {
			return fmt.Errorf("core: user %d deploys %d radios, budget is %d", i, total, g.radios)
		}
	}
	return nil
}

// Utility computes U_i(S) per Eq. 3: Σ_c k_{i,c}/k_c · R(k_c). Rates come
// from the precomputed table (identical values to calling R directly).
func (g *Game) Utility(a *Alloc, i int) float64 {
	return g.view.UtilityOf(a, i)
}

// Utilities computes every user's utility.
func (g *Game) Utilities(a *Alloc) []float64 {
	out := make([]float64, a.Users())
	for i := range out {
		out[i] = g.Utility(a, i)
	}
	return out
}

// UtilitiesInto is Utilities into the workspace's reusable buffer: zero
// steady-state allocations; the returned slice aliases ws and is valid
// until its next Utils use.
func (g *Game) UtilitiesInto(ws *Workspace, a *Alloc) []float64 {
	return g.view.UtilitiesInto(ws, a)
}

// allPlacedOptimum computes the all-placed welfare optimum once per game
// and serves the memo afterwards: PriceOfAnarchy sweeps over many
// allocations of one game pay the O(|C|·T²) DP a single time. The returned
// load slice is the memo itself — internal callers must not mutate it; the
// public OptimalWelfareAllPlaced copies.
func (g *Game) allPlacedOptimum() (float64, []int) {
	g.optOnce.Do(func() {
		val, loads := OptimalLoadWelfareInto(NewWorkspace(), g.view.Frozen(), g.channels, g.users*g.radios)
		g.optVal = val
		g.optLoads = append([]int(nil), loads...)
	})
	return g.optVal, g.optLoads
}

// Welfare computes the total rate achieved by all users,
// Σ_{c : k_c > 0} R(k_c), which equals Σ_i U_i(S).
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
// Φ(S) = Σ_c Σ_{j=1}^{k_c} R(j)/j via the precomputed rate table, in the
// same term order (and hence bit-identical) as dynamics.Potential with the
// game's own rate function.
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
// It requires k_{i,b} > 0 and b != c.
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
