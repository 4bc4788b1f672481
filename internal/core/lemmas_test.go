package core

import (
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// figure4Matrix is a NE allocation with the dimensions of the paper's
// Figure 4 (|N| = 7, k = 4, |C| = 6) in which user u1 is an "exception
// user" of Theorem 1: it occupies every minimum-load channel, holding two
// radios on c5 and one on c6.
func figure4Matrix() [][]int {
	return [][]int{
		{1, 0, 0, 0, 2, 1}, // u1: exception user (covers all of C_min = {c5, c6})
		{1, 1, 1, 1, 0, 0}, // u2
		{1, 1, 1, 1, 0, 0}, // u3
		{1, 1, 1, 1, 0, 0}, // u4
		{0, 1, 1, 0, 1, 1}, // u5
		{0, 1, 0, 1, 1, 1}, // u6
		{1, 0, 1, 1, 0, 1}, // u7
	}
	// Loads: c1..c4 = 5 (C_max), c5, c6 = 4 (C_min); δ = 1.
}

// figure5Matrix is a NE allocation with the dimensions of the paper's
// Figure 5 (|N| = 4, k = 4, |C| = 6) in which no user needs the exception
// clause: every user has at least one empty minimum-load channel.
func figure5Matrix() [][]int {
	return [][]int{
		{1, 1, 1, 0, 1, 0}, // u1 (misses c6)
		{0, 1, 1, 1, 1, 0}, // u2 (misses c6)
		{1, 0, 1, 1, 0, 1}, // u3 (misses c5)
		{1, 1, 0, 1, 0, 1}, // u4 (misses c5)
	}
	// Loads: c1..c4 = 3 (C_max), c5, c6 = 2 (C_min); δ = 1.
}

func TestPaperWalkthroughFigure1(t *testing.T) {
	// §3 of the paper walks through Figure 1 and names the violations:
	//  - Lemma 1 fails for u2 and u4 (they deploy fewer than k radios),
	//  - Lemma 2 holds e.g. for u1 with b = c4, c = c5,
	//  - Lemma 3 holds for u3 with b = c2, c = c3.
	g, a := figure1Game(t)

	v1 := CheckLemma1(g, a)
	if v1 == nil {
		t.Fatal("Lemma 1 violation not detected")
	}
	if v1.User != 1 { // u2 is the first under-deploying user
		t.Errorf("Lemma 1 witness is u%d, want u2", v1.User+1)
	}

	v2 := CheckLemma2(g, a)
	if v2 == nil {
		t.Fatal("Lemma 2 violation not detected")
	}
	// Any witness must satisfy the lemma's premises.
	if a.Radios(v2.User, v2.ChannelB) == 0 || a.Radios(v2.User, v2.ChannelC) != 0 {
		t.Errorf("Lemma 2 witness %v does not satisfy premises", v2)
	}
	if a.Load(v2.ChannelB)-a.Load(v2.ChannelC) <= 1 {
		t.Errorf("Lemma 2 witness %v has δ <= 1", v2)
	}
	// The paper's named instance (u1, b=c4, c=c5) satisfies the premises too.
	if a.Radios(0, 3) == 0 || a.Radios(0, 4) != 0 || a.Load(3)-a.Load(4) != 2 {
		t.Error("paper's Lemma 2 instance (u1, c4, c5) no longer matches the matrix")
	}

	v3 := CheckLemma3(g, a)
	if v3 == nil {
		t.Fatal("Lemma 3 violation not detected")
	}
	if v3.User != 2 || v3.ChannelB != 1 || v3.ChannelC != 2 {
		t.Errorf("Lemma 3 witness = %v, want u3 with b=c2, c=c3", v3)
	}

	// Figure 1 is not load-balanced: Proposition 1 must flag it too.
	if CheckProposition1(g, a) == nil {
		t.Error("Proposition 1 violation not detected (loads 4..1)")
	}

	// And the aggregate walk-through lists one witness per violated rule.
	all := CheckAllLemmas(g, a)
	rules := make(map[string]bool, len(all))
	for _, v := range all {
		rules[v.Rule] = true
	}
	for _, want := range []string{"lemma1", "lemma2", "lemma3", "prop1"} {
		if !rules[want] {
			t.Errorf("CheckAllLemmas missing %s", want)
		}
	}

	// The theorem checker must reject Figure 1 outright.
	if ok, _ := TheoremNE(g, a); ok {
		t.Error("Figure 1 example misclassified as NE")
	}
}

func TestLemma4Detection(t *testing.T) {
	// Equal loads, one user with two radios on b and none on c.
	g := mustGame(t, 2, 2, 2, ratefn.NewTDMA(1))
	a := mustAlloc(t, [][]int{
		{2, 0},
		{0, 2},
	})
	v := CheckLemma4(g, a)
	if v == nil {
		t.Fatal("Lemma 4 violation not detected")
	}
	if v.User != 0 || v.ChannelB != 0 || v.ChannelC != 1 {
		t.Errorf("witness = %v, want u1 b=c1 c=c2", v)
	}
}

func TestLemma4NoFalsePositive(t *testing.T) {
	g := mustGame(t, 2, 2, 2, ratefn.NewTDMA(1))
	a := mustAlloc(t, [][]int{
		{1, 1},
		{1, 1},
	})
	if v := CheckLemma4(g, a); v != nil {
		t.Fatalf("spurious Lemma 4 violation: %v", v)
	}
}

func TestLemmaViolationsPredictProfitableMoves(t *testing.T) {
	// Every lemma-2/3/4 witness comes with a constructive deviation: moving
	// one radio from b to c must strictly increase utility (this is exactly
	// the content of the lemmas' proofs). Verify Δ > 0 for every witness on
	// a batch of hand-built configurations under constant R.
	g5 := mustGame(t, 4, 5, 4, ratefn.NewTDMA(1))
	g2 := mustGame(t, 2, 2, 2, ratefn.NewTDMA(1))
	cases := []struct {
		name  string
		g     *Game
		m     [][]int
		check func(*Game, *Alloc) *Violation
	}{
		{"lemma2-fig1", g5, figure1Matrix(), CheckLemma2},
		{"lemma3-fig1", g5, figure1Matrix(), CheckLemma3},
		{"lemma4-2x2", g2, [][]int{{2, 0}, {0, 2}}, CheckLemma4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustAlloc(t, tc.m)
			v := tc.check(tc.g, a)
			if v == nil {
				t.Fatal("expected a violation")
			}
			delta, err := tc.g.BenefitOfMove(a, v.User, v.ChannelB, v.ChannelC)
			if err != nil {
				t.Fatal(err)
			}
			if delta <= 0 {
				t.Fatalf("witness %v does not yield a profitable move (Δ=%v)", v, delta)
			}
		})
	}
}

func TestViolationString(t *testing.T) {
	var nilV *Violation
	if nilV.String() == "" {
		t.Error("nil violation should render a placeholder")
	}
	v := &Violation{Rule: "lemma2", User: 0, ChannelB: 3, ChannelC: 4, Detail: "δ=2"}
	s := v.String()
	for _, want := range []string{"lemma2", "u1", "c4", "c5", "δ=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation string %q missing %q", s, want)
		}
	}
}

func TestTheoremNEFigure4(t *testing.T) {
	// The Figure-4 style allocation (with exception user u1) is a NE under
	// the paper's constant-rate regime, both by Theorem 1 and by the exact
	// best-response oracle.
	g := mustGame(t, 7, 6, 4, ratefn.NewTDMA(1))
	a := mustAlloc(t, figure4Matrix())

	ok, v := TheoremNE(g, a)
	if !ok {
		t.Fatalf("Theorem 1 rejects the Figure 4 NE: %v", v)
	}
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		dev, _ := g.FindDeviation(a, DefaultEps)
		t.Fatalf("best-response oracle rejects the Figure 4 NE: %v", dev)
	}
	// Exact rational arithmetic agrees.
	isNE, exact, err := g.IsNashEquilibriumRat(a)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("TDMA rate should support exact arithmetic")
	}
	if !isNE {
		t.Fatal("exact oracle rejects the Figure 4 NE")
	}
}

func TestTheoremNEFigure5(t *testing.T) {
	g := mustGame(t, 4, 6, 4, ratefn.NewTDMA(1))
	a := mustAlloc(t, figure5Matrix())

	ok, v := TheoremNE(g, a)
	if !ok {
		t.Fatalf("Theorem 1 rejects the Figure 5 NE: %v", v)
	}
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		dev, _ := g.FindDeviation(a, DefaultEps)
		t.Fatalf("best-response oracle rejects the Figure 5 NE: %v", dev)
	}
}

func TestTheoremNEExceptionUserIdentified(t *testing.T) {
	// In Figure 4, u1 has no empty C_min channel; every other user does or
	// holds at most one radio everywhere.
	a := mustAlloc(t, figure4Matrix())
	_, cmin, _ := a.ChannelSets()
	if len(cmin) != 2 || cmin[0] != 4 || cmin[1] != 5 {
		t.Fatalf("Cmin = %v, want [4 5]", cmin)
	}
	if hasEmptyMinChannel(a, 0, cmin) {
		t.Error("u1 should cover every C_min channel (exception user)")
	}
	if !hasEmptyMinChannel(a, 1, cmin) {
		t.Error("u2 should have an empty C_min channel")
	}
}

func TestTheoremNERejectsProfitableSpareMove(t *testing.T) {
	// Regression for a sufficiency gap in the paper's structural
	// conditions: u4 owns both radios of the load-2 minimum channel c2, so
	// it passes the exception clause (no empty C_min channel, nothing
	// doubled on C_max) — yet moving one radio to c3 keeps c2's full rate
	// and earns 1/4 extra. The checker must agree with the exact oracle.
	g := mustGame(t, 4, 3, 2, ratefn.NewTDMA(1))
	a := mustAlloc(t, [][]int{
		{1, 0, 1},
		{1, 0, 1},
		{1, 0, 1},
		{0, 2, 0},
	})
	ok, v := TheoremNE(g, a)
	if ok {
		t.Fatal("exception user with a profitable spare move accepted as NE")
	}
	if v == nil || v.Rule != "thm1-cond2" {
		t.Fatalf("violation = %v, want thm1-cond2", v)
	}
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("oracle disagrees: it should reject this allocation too")
	}

	// d_min = 3 sits just inside the gap as well (u5 doubled on c4, loads
	// 4,4,4,3): 1/2 + 1/5 > 2/3.
	g3 := mustGame(t, 5, 4, 3, ratefn.NewTDMA(1))
	a3 := mustAlloc(t, [][]int{
		{1, 1, 1, 0},
		{1, 1, 1, 0},
		{1, 1, 1, 0},
		{0, 1, 1, 1},
		{1, 0, 0, 2},
	})
	if ok, _ := TheoremNE(g3, a3); ok {
		t.Fatal("d_min=3 spare-move deviation accepted as NE")
	}
	if ne, err := g3.IsNashEquilibrium(a3); err != nil || ne {
		t.Fatalf("oracle should also reject (ne=%v err=%v)", ne, err)
	}
}

func TestTheoremNERejectsConcentratedUser(t *testing.T) {
	// Balanced loads (4,3,3,3,3) but u1 piles three radios on c2 while
	// leaving minimum-load channels untouched: condition 2 must reject it,
	// and the exact oracle agrees under constant R.
	g := mustGame(t, 4, 5, 4, ratefn.NewTDMA(1))
	a := mustAlloc(t, [][]int{
		{0, 3, 1, 0, 0}, // k_{1,c2} = 3 > 1 with empty C_min channels
		{1, 0, 1, 1, 1},
		{1, 0, 1, 1, 1},
		{2, 0, 0, 1, 1},
	})
	ok, v := TheoremNE(g, a)
	if ok {
		t.Fatal("allocation with a triple radio should not be a theorem-NE")
	}
	if v == nil || v.Rule != "thm1-cond2" {
		t.Fatalf("violation = %v, want thm1-cond2", v)
	}
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("oracle claims NE for a condition-2 violation under constant R")
	}
}

func TestTheoremNEFact1Regime(t *testing.T) {
	// |N|·k <= |C|: one radio per channel is a NE; sharing is not.
	g := mustGame(t, 2, 6, 2, ratefn.NewTDMA(1))
	spread := mustAlloc(t, [][]int{
		{1, 1, 0, 0, 0, 0},
		{0, 0, 1, 1, 0, 0},
	})
	ok, v := TheoremNE(g, spread)
	if !ok {
		t.Fatalf("spread allocation should be NE in Fact 1 regime: %v", v)
	}
	ne, err := g.IsNashEquilibrium(spread)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("oracle rejects Fact 1 NE")
	}

	shared := mustAlloc(t, [][]int{
		{1, 1, 0, 0, 0, 0},
		{1, 0, 1, 0, 0, 0}, // shares c1 although empty channels exist
	})
	ok, v = TheoremNE(g, shared)
	if ok {
		t.Fatal("shared channel with spare channels should not be NE")
	}
	if v.Rule != "fact1" {
		t.Fatalf("violation rule = %q, want fact1", v.Rule)
	}
	ne, err = g.IsNashEquilibrium(shared)
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("oracle claims NE for shared channel in Fact 1 regime")
	}
}

func TestTheoremNERequiresFullDeployment(t *testing.T) {
	g := mustGame(t, 2, 3, 2, ratefn.NewTDMA(1))
	a := mustAlloc(t, [][]int{
		{1, 0, 0}, // only one of two radios deployed
		{0, 1, 1},
	})
	ok, v := TheoremNE(g, a)
	if ok {
		t.Fatal("under-deployment should not be NE")
	}
	if v.Rule != "lemma1" {
		t.Fatalf("violation rule = %q, want lemma1", v.Rule)
	}
}

func TestTheoremNEInvalidAlloc(t *testing.T) {
	g := mustGame(t, 2, 3, 2, ratefn.NewTDMA(1))
	wrong, err := NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, v := TheoremNE(g, wrong)
	if ok || v == nil || v.Rule != "invalid" {
		t.Fatalf("mismatched alloc should yield invalid verdict, got ok=%v v=%v", ok, v)
	}
}

func TestTheoremNEFlatAllocation(t *testing.T) {
	// Flat loads with all-singles rows: NE. Flat loads with a double: not.
	g := mustGame(t, 3, 3, 2, ratefn.NewTDMA(1))
	flatOK := mustAlloc(t, [][]int{
		{1, 1, 0},
		{0, 1, 1},
		{1, 0, 1},
	})
	if ok, v := TheoremNE(g, flatOK); !ok {
		t.Fatalf("balanced singles should be NE: %v", v)
	}
	flatBad := mustAlloc(t, [][]int{
		{2, 0, 0},
		{0, 2, 0},
		{0, 0, 2},
	})
	if ok, _ := TheoremNE(g, flatBad); ok {
		t.Fatal("flat allocation of doubles should not be NE")
	}
	ne, err := g.IsNashEquilibrium(flatBad)
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("oracle claims NE for flat doubles")
	}
}

// TestMixedBudgetGuards pins how the paper's common-k results treat a game
// whose budgets differ: Radios reports 0, TheoremNE refuses with its
// "invalid" violation instead of a verdict, and CheckLemma1 measures each
// user against its own budget.
func TestMixedBudgetGuards(t *testing.T) {
	r := ratefn.NewTDMA(1)
	mixed := mustHetero(t, 3, []int{2, 1}, r)
	equal := mustHetero(t, 3, []int{2, 2}, r)
	cases := []struct {
		name       string
		g          *Game
		matrix     [][]int
		wantRadios int
		wantThm    string // TheoremNE's violation rule; "" means accepted
		wantLemma1 int    // CheckLemma1's witness user; -1 means none
	}{
		{"mixed-full", mixed, [][]int{{1, 1, 0}, {0, 0, 1}}, 0, "invalid", -1},
		{"mixed-idle-radio", mixed, [][]int{{1, 1, 0}, {0, 0, 0}}, 0, "invalid", 1},
		{"mixed-short-of-k_0", mixed, [][]int{{1, 0, 0}, {0, 0, 1}}, 0, "invalid", 0},
		{"equal-budgets-ne", equal, [][]int{{1, 1, 0}, {0, 1, 1}}, 2, "", -1},
		{"equal-budgets-idle", equal, [][]int{{1, 1, 0}, {0, 0, 1}}, 2, "lemma1", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustAlloc(t, tc.matrix)
			if got := tc.g.Radios(); got != tc.wantRadios {
				t.Errorf("Radios() = %d, want %d", got, tc.wantRadios)
			}
			ok, v := TheoremNE(tc.g, a)
			switch {
			case tc.wantThm == "" && (!ok || v != nil):
				t.Errorf("TheoremNE = %v, %v; want accepted", ok, v)
			case tc.wantThm != "" && (ok || v == nil || v.Rule != tc.wantThm):
				t.Errorf("TheoremNE = %v, %v; want rule %q", ok, v, tc.wantThm)
			}
			v1 := CheckLemma1(tc.g, a)
			switch {
			case tc.wantLemma1 < 0 && v1 != nil:
				t.Errorf("CheckLemma1 = %v, want none", v1)
			case tc.wantLemma1 >= 0 && (v1 == nil || v1.User != tc.wantLemma1):
				t.Errorf("CheckLemma1 = %v, want user %d", v1, tc.wantLemma1)
			}
		})
	}
}
