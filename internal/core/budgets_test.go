package core

import (
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Tests of games whose users own different radio budgets (NewHeteroGame):
// the paper assumes a common k, and these pin how far its results carry.

func mustHetero(t *testing.T, channels int, budgets []int, r ratefn.Func) *Game {
	t.Helper()
	g, err := NewHeteroGame(channels, budgets, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewHeteroGameValidation(t *testing.T) {
	r := ratefn.NewTDMA(1)
	cases := []struct {
		name     string
		channels int
		budgets  []int
		rate     ratefn.Func
	}{
		{"zero-channels", 0, []int{1}, r},
		{"no-users", 3, nil, r},
		{"zero-budget", 3, []int{0}, r},
		{"budget-exceeds-channels", 3, []int{4}, r},
		{"nil-rate", 3, []int{2}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewHeteroGame(tc.channels, tc.budgets, tc.rate); err == nil {
				t.Fatalf("NewHeteroGame(%d, %v) should error", tc.channels, tc.budgets)
			}
		})
	}
}

// TestEqualBudgetsMatchUniformGame: a per-user game whose budgets are all
// k is the uniform game — same common budget, utilities, welfare and NE
// set.
func TestEqualBudgetsMatchUniformGame(t *testing.T) {
	r := ratefn.Harmonic{R0: 1, Alpha: 0.5}
	hg := mustHetero(t, 3, []int{2, 2, 2}, r)
	cg := mustGame(t, 3, 3, 2, r)
	if hg.Radios() != 2 {
		t.Fatalf("equal budgets: Radios() = %d, want 2", hg.Radios())
	}
	a := mustAlloc(t, figure1Matrix())
	hf := mustHetero(t, 5, []int{4, 4, 4, 4}, ratefn.NewTDMA(1))
	cf, _ := figure1Game(t)
	for i := 0; i < 4; i++ {
		if hf.Utility(a, i) != cf.Utility(a, i) {
			t.Errorf("u%d: per-user game %v, uniform game %v", i+1, hf.Utility(a, i), cf.Utility(a, i))
		}
	}
	if hf.Welfare(a) != cf.Welfare(a) {
		t.Error("welfare differs from the uniform game")
	}
	got, err := EnumerateNE(hg, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EnumerateNE(cg, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d equilibria, uniform game has %d", len(got), len(want))
	}
	for j := range got {
		if !got[j].Equal(want[j]) {
			t.Fatalf("equilibrium %d differs:\n%v\nvs\n%v", j, got[j], want[j])
		}
	}
}

// TestAlgorithm1HeteroIsNE is E11's headline: sequential greedy with
// per-user budgets still lands on exact, fully deployed Nash equilibria,
// across rate shapes and random budget mixes.
func TestAlgorithm1HeteroIsNE(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 0.5},
		ratefn.Geometric{R0: 1, Beta: 0.7},
	}
	for _, r := range rates {
		for seed := uint64(0); seed < 20; seed++ {
			rng := des.NewRNG(seed)
			channels := 2 + rng.Intn(5)
			budgets := make([]int, 1+rng.Intn(5))
			for i := range budgets {
				budgets[i] = 1 + rng.Intn(channels)
			}
			g := mustHetero(t, channels, budgets, r)
			a, err := Algorithm1(g, WithTieBreak(TieRandom), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			if v := CheckLemma1(g, a); v != nil {
				t.Fatalf("%s seed %d: not full deployment: %v", r.Name(), seed, v)
			}
			ne, err := g.IsNashEquilibrium(a)
			if err != nil {
				t.Fatal(err)
			}
			if !ne {
				dev, _ := g.FindDeviation(a, DefaultEps)
				t.Fatalf("%s seed %d budgets %v: not NE: %v\n%v", r.Name(), seed, budgets, dev, a)
			}
		}
	}
}

// TestAlgorithm1HeteroOrderMatters: placing the big-budget user first or
// last changes the matrix but not the NE property.
func TestAlgorithm1HeteroOrderMatters(t *testing.T) {
	for _, budgets := range [][]int{{4, 1, 1}, {1, 1, 4}} {
		g := mustHetero(t, 4, budgets, ratefn.NewTDMA(1))
		a, err := Algorithm1(g)
		if err != nil {
			t.Fatal(err)
		}
		if ne, err := g.IsNashEquilibrium(a); err != nil || !ne {
			t.Fatalf("budgets %v: NE=%v err=%v", budgets, ne, err)
		}
	}
}

// TestHeteroNEPropertiesExhaustive: generalised Lemma 1 and Proposition 1.
// On tiny mixed-budget games with positive constant rate, every exact NE
// deploys all budgets and keeps channel loads within one.
func TestHeteroNEPropertiesExhaustive(t *testing.T) {
	configs := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{2, 1}},
		{3, []int{2, 1}},
		{3, []int{3, 1, 1}},
		{2, []int{2, 2, 1}},
	}
	for _, cfg := range configs {
		g := mustHetero(t, cfg.channels, cfg.budgets, ratefn.NewTDMA(1))
		nes, err := EnumerateNE(g, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(nes) == 0 {
			t.Fatalf("C=%d budgets %v: no NE", cfg.channels, cfg.budgets)
		}
		for _, ne := range nes {
			if v := CheckLemma1(g, ne); v != nil {
				t.Errorf("C=%d budgets %v: NE with idle radios (%v):\n%v", cfg.channels, cfg.budgets, v, ne)
			}
			if v := CheckProposition1(g, ne); v != nil {
				t.Errorf("C=%d budgets %v: unbalanced NE (%v):\n%v", cfg.channels, cfg.budgets, v, ne)
			}
		}
	}
}

func TestBestResponseRespectsBudget(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		channels := 2 + rng.Intn(4)
		budgets := []int{1 + rng.Intn(channels), 1 + rng.Intn(channels)}
		g, err := NewHeteroGame(channels, budgets, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		a, err := Algorithm1(g)
		if err != nil {
			return false
		}
		for i := 0; i < g.Users(); i++ {
			row, _, err := g.BestResponse(a, i)
			if err != nil {
				return false
			}
			total := 0
			for _, x := range row {
				total += x
			}
			if total > g.Budget(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// TestMixedBudgetsFairness: a user with twice the radios earns roughly
// twice the rate at a balanced NE under constant R (its radios sit on
// equally loaded channels).
func TestMixedBudgetsFairness(t *testing.T) {
	g := mustHetero(t, 6, []int{4, 2, 4, 2}, ratefn.NewTDMA(1))
	a, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	if ne, err := g.IsNashEquilibrium(a); err != nil || !ne {
		t.Fatalf("Algorithm 1 output: NE=%v err=%v", ne, err)
	}
	u := g.Utilities(a)
	if ratio := u[0] / u[1]; ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("4-radio vs 2-radio utility ratio %v, want ~2", ratio)
	}
}

func TestMixedBudgetOptimalWelfareAllPlaced(t *testing.T) {
	// 4 channels, budgets 2+1+1 = 4 radios, constant R: the optimum spreads
	// one radio per channel, welfare 4·R(1).
	opt, loads := OptimalWelfareAllPlaced(mustHetero(t, 4, []int{2, 1, 1}, ratefn.NewTDMA(1)))
	if opt != 4 {
		t.Fatalf("optimum %v, want 4", opt)
	}
	placed := 0
	for _, l := range loads {
		placed += l
	}
	if placed != 4 {
		t.Fatalf("optimising loads place %d radios, want 4", placed)
	}
	// More radios than channels under sharp decay: the DP depends on the
	// budget total alone, so 3+2+1 radios over 3 channels match the
	// uniform 3×2 game, and everything is placed.
	h := ratefn.Harmonic{R0: 1, Alpha: 1}
	optH, loadsH := OptimalWelfareAllPlaced(mustHetero(t, 3, []int{3, 2, 1}, h))
	optU, _ := OptimalWelfareAllPlaced(mustGame(t, 3, 3, 2, h))
	if optH != optU {
		t.Fatalf("mixed-budget optimum %v disagrees with the uniform game's %v on equal totals", optH, optU)
	}
	placed = 0
	for _, l := range loadsH {
		placed += l
	}
	if placed != 6 {
		t.Fatalf("optimising loads place %d radios, want 6", placed)
	}
}

func TestMixedBudgetOptimalWelfareIdleAllowed(t *testing.T) {
	// 8 channels, 4 radios: light 4 channels.
	opt, loads := OptimalWelfareIdleAllowed(mustHetero(t, 8, []int{2, 1, 1}, ratefn.NewTDMA(1)))
	if opt != 4 {
		t.Fatalf("optimum %v, want 4", opt)
	}
	lit := 0
	for _, l := range loads {
		if l == 1 {
			lit++
		} else if l != 0 {
			t.Fatalf("idle-allowed loads must be 0/1, got %v", loads)
		}
	}
	if lit != 4 {
		t.Fatalf("%d channels lit, want 4", lit)
	}
	// 2 channels, 5 radios: every channel lit.
	if opt2, _ := OptimalWelfareIdleAllowed(mustHetero(t, 2, []int{2, 2, 1}, ratefn.NewTDMA(1))); opt2 != 2 {
		t.Fatalf("optimum %v, want 2", opt2)
	}
}

// TestHeteroWelfareFreshLoads: the all-placed optimum of a mixed-budget
// game matches the direct DP, the returned loads are fresh on every call
// and the price of anarchy is stable under repetition.
func TestHeteroWelfareFreshLoads(t *testing.T) {
	g := mustHetero(t, 3, []int{2, 1, 2}, ratefn.Harmonic{R0: 1, Alpha: 1})
	wantVal, wantLoads := OptimalLoadWelfare(g.View().Frozen(), g.Channels(), 5)
	opt1, loads1 := OptimalWelfareAllPlaced(g)
	if opt1 != wantVal {
		t.Fatalf("optimum %v, direct DP %v", opt1, wantVal)
	}
	loads1[0] = 99
	opt2, loads2 := OptimalWelfareAllPlaced(g)
	if opt2 != wantVal {
		t.Fatalf("second call optimum %v, want %v", opt2, wantVal)
	}
	for c := range wantLoads {
		if loads2[c] != wantLoads[c] {
			t.Fatalf("second call loads %v, want %v", loads2, wantLoads)
		}
	}
	ne, err := Algorithm1(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := PriceOfAnarchy(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := PriceOfAnarchy(g, ne); first != again {
		t.Fatalf("PoA changed between calls: %v then %v", first, again)
	}
}

func TestHeteroPriceOfAnarchy(t *testing.T) {
	// The sequential greedy NE is welfare-optimal under constant R whenever
	// total radios exceed channels (every channel stays lit); under
	// decaying R it stays within (0, 1] of the optimum.
	for _, r := range []ratefn.Func{ratefn.NewTDMA(1), ratefn.Harmonic{R0: 1, Alpha: 0.5}} {
		g := mustHetero(t, 4, []int{4, 2, 1}, r)
		a, err := Algorithm1(g)
		if err != nil {
			t.Fatal(err)
		}
		poa, err := PriceOfAnarchy(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if poa <= 0 || poa > 1 || (r.Name() == ratefn.NewTDMA(1).Name() && poa != 1) {
			t.Fatalf("%s: PoA %v", r.Name(), poa)
		}
	}
}
