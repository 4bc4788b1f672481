package core

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

func mustGame(t *testing.T, users, channels, radios int, r ratefn.Func) *Game {
	t.Helper()
	g, err := NewGame(users, channels, radios, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// figure1Game returns the game of the paper's Figure 1 with unit-rate TDMA.
func figure1Game(t *testing.T) (*Game, *Alloc) {
	t.Helper()
	g := mustGame(t, 4, 5, 4, ratefn.NewTDMA(1))
	return g, mustAlloc(t, figure1Matrix())
}

func TestNewGameValidation(t *testing.T) {
	r := ratefn.NewTDMA(1)
	cases := []struct {
		name                    string
		users, channels, radios int
		rate                    ratefn.Func
	}{
		{"zero-users", 0, 3, 1, r},
		{"zero-channels", 2, 0, 1, r},
		{"zero-radios", 2, 3, 0, r},
		{"radios-exceed-channels", 2, 3, 4, r},
		{"nil-rate", 2, 3, 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGame(tc.users, tc.channels, tc.radios, tc.rate); err == nil {
				t.Fatalf("NewGame(%d,%d,%d) should error", tc.users, tc.channels, tc.radios)
			}
		})
	}
}

func TestGameAccessors(t *testing.T) {
	g := mustGame(t, 4, 5, 3, ratefn.NewTDMA(2))
	if g.Users() != 4 || g.Channels() != 5 || g.Radios() != 3 {
		t.Fatalf("accessors wrong: %d %d %d", g.Users(), g.Channels(), g.Radios())
	}
	if g.Rate() == nil {
		t.Fatal("nil rate accessor")
	}
	if !g.HasConflict() {
		t.Fatal("4*3 > 5 should be a conflict")
	}
	if mustGame(t, 1, 5, 3, ratefn.NewTDMA(1)).HasConflict() {
		t.Fatal("1*3 <= 5 should not be a conflict")
	}
}

// TestHeteroGameAccessors: per-user budgets come back as a copied vector,
// and the conflict test uses Σ_i k_i.
func TestHeteroGameAccessors(t *testing.T) {
	in := []int{3, 1, 2}
	h := mustHetero(t, 4, in, ratefn.NewTDMA(1))
	if h.Users() != 3 || h.Budget(0) != 3 || h.Budget(1) != 1 || h.Budget(2) != 2 {
		t.Fatalf("per-user accessors wrong: %d users, budgets %v", h.Users(), h.Budgets())
	}
	in[0] = 99
	h.Budgets()[1] = 99
	if h.Budget(0) != 3 || h.Budget(1) != 1 {
		t.Fatal("budget vector aliases caller storage")
	}
	if !h.HasConflict() {
		t.Fatal("3+1+2 > 4 should be a conflict")
	}
}

func TestCheckAlloc(t *testing.T) {
	g, a := figure1Game(t)
	if err := g.CheckAlloc(a); err != nil {
		t.Fatalf("figure 1 allocation should be legal: %v", err)
	}
	if err := g.CheckAlloc(nil); err == nil {
		t.Error("nil alloc should error")
	}
	small, err := NewAlloc(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckAlloc(small); err == nil {
		t.Error("wrong dims should error")
	}
	over := mustAlloc(t, [][]int{
		{2, 1, 1, 1, 0}, // 5 radios > k=4
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
	})
	if err := g.CheckAlloc(over); err == nil {
		t.Error("over-budget user should error")
	}
}

func TestCheckAllocBudgets(t *testing.T) {
	// Per-user budgets (2, 1): user 1 may deploy one radio, not two.
	h := mustHetero(t, 3, []int{2, 1}, ratefn.NewTDMA(1))
	if err := h.CheckAlloc(mustAlloc(t, [][]int{{1, 1, 0}, {0, 0, 1}})); err != nil {
		t.Errorf("legal per-user allocation rejected: %v", err)
	}
	if err := h.CheckAlloc(mustAlloc(t, [][]int{{1, 1, 0}, {1, 0, 1}})); err == nil {
		t.Error("user over its own budget should error")
	}
	if err := h.CheckAlloc(nil); err == nil {
		t.Error("nil alloc should error")
	}
}

func TestUtilityFigure1TDMA(t *testing.T) {
	// With R(k)=1 constant, U_i = Σ_c k_{i,c}/k_c. Loads are (4,3,2,3,1).
	g, a := figure1Game(t)
	want := []float64{
		1.0/4 + 1.0/3 + 1.0/2 + 1.0/3, // u1: c1..c4
		1.0/4 + 1.0/2 + 1.0,           // u2: c1, c3, c5
		1.0/4 + 2.0/3 + 1.0/3,         // u3: c1, c2 (two radios), c4
		1.0/4 + 1.0/3,                 // u4: c1, c4
	}
	for i, w := range want {
		if got := g.Utility(a, i); math.Abs(got-w) > 1e-12 {
			t.Errorf("U(u%d) = %v, want %v", i+1, got, w)
		}
	}
	utils := g.Utilities(a)
	for i := range want {
		if math.Abs(utils[i]-want[i]) > 1e-12 {
			t.Errorf("Utilities[%d] = %v, want %v", i, utils[i], want[i])
		}
	}
}

func TestUtilitySumEqualsWelfare(t *testing.T) {
	// Σ_i U_i = Σ_{c: k_c>0} R(k_c) holds identically (Eq. 3 summed).
	rates := []ratefn.Func{
		ratefn.NewTDMA(3),
		ratefn.Harmonic{R0: 3, Alpha: 0.7},
		ratefn.Geometric{R0: 3, Beta: 0.8},
	}
	g0, a := figure1Game(t)
	for _, r := range rates {
		g := mustGame(t, g0.Users(), g0.Channels(), g0.Radios(), r)
		var sum float64
		for i := 0; i < g.Users(); i++ {
			sum += g.Utility(a, i)
		}
		if w := g.Welfare(a); math.Abs(sum-w) > 1e-9 {
			t.Errorf("%s: ΣU = %v but welfare = %v", r.Name(), sum, w)
		}
	}
}

// TestHeteroUtilitySumEqualsWelfare: Σ_i U_i = welfare also holds with
// per-user budgets, on Figure 1 (budgets = its row totals) and on an
// Algorithm 1 outcome.
func TestHeteroUtilitySumEqualsWelfare(t *testing.T) {
	h := ratefn.Harmonic{R0: 2, Alpha: 0.5}
	_, fig := figure1Game(t)
	g := mustHetero(t, 4, []int{3, 1, 2}, h)
	ne, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g *Game
		a *Alloc
	}{
		{mustHetero(t, 5, []int{4, 3, 4, 2}, h), fig},
		{g, ne},
	} {
		var sum float64
		for i := 0; i < tc.g.Users(); i++ {
			sum += tc.g.Utility(tc.a, i)
		}
		if w := tc.g.Welfare(tc.a); math.Abs(sum-w) > 1e-9 {
			t.Errorf("budgets %v: ΣU = %v but welfare = %v", tc.g.Budgets(), sum, w)
		}
	}
}

func TestWelfareCountsOnlyLoadedChannels(t *testing.T) {
	g := mustGame(t, 2, 4, 2, ratefn.NewTDMA(5))
	a := mustAlloc(t, [][]int{
		{1, 1, 0, 0},
		{1, 1, 0, 0},
	})
	if got, want := g.Welfare(a), 10.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("welfare = %v, want %v (two loaded channels)", got, want)
	}
}

func TestBenefitOfMoveMatchesBruteForce(t *testing.T) {
	// Eq. 7 computed incrementally must equal the utility difference
	// obtained by actually performing the move.
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 1},
		ratefn.Geometric{R0: 2, Beta: 0.5},
	}
	for _, r := range rates {
		g := mustGame(t, 4, 5, 4, r)
		a := mustAlloc(t, figure1Matrix())
		for i := 0; i < a.Users(); i++ {
			for b := 0; b < a.Channels(); b++ {
				if a.Radios(i, b) == 0 {
					continue
				}
				for c := 0; c < a.Channels(); c++ {
					if c == b {
						continue
					}
					delta, err := g.BenefitOfMove(a, i, b, c)
					if err != nil {
						t.Fatalf("%s: BenefitOfMove(u%d, c%d->c%d): %v", r.Name(), i+1, b+1, c+1, err)
					}
					before := g.Utility(a, i)
					moved := a.Clone()
					if err := moved.Move(i, b, c); err != nil {
						t.Fatal(err)
					}
					after := g.Utility(moved, i)
					if math.Abs(delta-(after-before)) > 1e-9 {
						t.Errorf("%s: Eq.7 delta %v != brute force %v (u%d, c%d->c%d)",
							r.Name(), delta, after-before, i+1, b+1, c+1)
					}
				}
			}
		}
	}
}

func TestBenefitOfMoveErrors(t *testing.T) {
	g, a := figure1Game(t)
	if _, err := g.BenefitOfMove(a, 0, 1, 1); err == nil {
		t.Error("same channel should error")
	}
	if _, err := g.BenefitOfMove(a, 0, -1, 1); err == nil {
		t.Error("bad channel should error")
	}
	if _, err := g.BenefitOfMove(a, 0, 1, 9); err == nil {
		t.Error("bad channel should error")
	}
	if _, err := g.BenefitOfMove(a, 9, 0, 1); err == nil {
		t.Error("bad user should error")
	}
	if _, err := g.BenefitOfMove(a, 0, 4, 0); err == nil {
		t.Error("no radio on source channel should error")
	}
}

func TestPaperLemma2MoveIsProfitable(t *testing.T) {
	// Paper §3: "In the example presented in Figure 1, Lemma 2 holds e.g.
	// for user u1 and the channels b = c4 and c = c5" — moving u1's radio
	// from c4 (load 3) to c5 (load 1) must strictly help under constant R.
	g, a := figure1Game(t)
	delta, err := g.BenefitOfMove(a, 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Fatalf("Lemma 2 move should be strictly profitable, got Δ = %v", delta)
	}
}

func TestPaperLemma3MoveIsProfitable(t *testing.T) {
	// Paper §3: Lemma 3 holds for u3 with b = c2, c = c3 in Figure 1.
	g, a := figure1Game(t)
	delta, err := g.BenefitOfMove(a, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Fatalf("Lemma 3 move should be strictly profitable, got Δ = %v", delta)
	}
}

func TestNewEmptyAlloc(t *testing.T) {
	g := mustGame(t, 3, 4, 2, ratefn.NewTDMA(1))
	a := g.NewEmptyAlloc()
	if a.Users() != 3 || a.Channels() != 4 || a.TotalRadios() != 0 {
		t.Fatal("NewEmptyAlloc dimensions wrong")
	}
}
