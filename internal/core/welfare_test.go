package core

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

func TestOptimalWelfareAllPlacedConstantRate(t *testing.T) {
	// Constant R: any load vector covering all channels achieves C·R0.
	g := mustGame(t, 4, 5, 4, ratefn.NewTDMA(2))
	opt, loads := OptimalWelfareAllPlaced(g)
	if math.Abs(opt-10) > 1e-12 {
		t.Fatalf("optimum = %v, want 10", opt)
	}
	total := 0
	for _, l := range loads {
		if l < 0 {
			t.Fatalf("negative load in optimiser output: %v", loads)
		}
		total += l
	}
	if total != g.Users()*g.Radios() {
		t.Fatalf("optimiser placed %d radios, want %d", total, g.Users()*g.Radios())
	}
}

func TestOptimalWelfareAllPlacedSharpDecay(t *testing.T) {
	// R(k) = 1/k: welfare of a channel is R(l) = 1/l, so the optimum with
	// forced placement is to dump all extra radios on one channel and keep
	// the rest at load 1. C=2, T=4: loads (1,3) give 1 + 1/3 = 4/3 beating
	// the balanced (2,2) = 1.
	r := ratefn.Harmonic{R0: 1, Alpha: 1}
	g := mustGame(t, 2, 2, 2, r)
	opt, loads := OptimalWelfareAllPlaced(g)
	if math.Abs(opt-4.0/3) > 1e-9 {
		t.Fatalf("optimum = %v, want 4/3 (loads %v)", opt, loads)
	}
	// One channel must carry load 1.
	if loads[0] != 1 && loads[1] != 1 {
		t.Fatalf("expected a singleton channel in %v", loads)
	}
}

func TestOptimalWelfareIdleAllowed(t *testing.T) {
	g := mustGame(t, 2, 5, 2, ratefn.NewTDMA(3))
	opt, loads := OptimalWelfareIdleAllowed(g)
	// min(C=5, T=4) = 4 channels lit at R(1)=3.
	if math.Abs(opt-12) > 1e-12 {
		t.Fatalf("optimum = %v, want 12", opt)
	}
	lit := 0
	for _, l := range loads {
		if l > 1 {
			t.Fatalf("idle-allowed optimum should not stack: %v", loads)
		}
		lit += l
	}
	if lit != 4 {
		t.Fatalf("lit %d channels, want 4", lit)
	}

	// More radios than channels: all channels lit once.
	g2 := mustGame(t, 4, 3, 3, ratefn.NewTDMA(1))
	opt2, _ := OptimalWelfareIdleAllowed(g2)
	if math.Abs(opt2-3) > 1e-12 {
		t.Fatalf("optimum = %v, want 3", opt2)
	}
}

func TestPriceOfAnarchyNE(t *testing.T) {
	// For constant R, every NE is system optimal (Theorem 2 corollary).
	g := mustGame(t, 4, 6, 4, ratefn.NewTDMA(1))
	a := mustAlloc(t, figure5Matrix())
	poa, err := PriceOfAnarchy(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-1) > 1e-12 {
		t.Fatalf("PoA = %v, want 1", poa)
	}
}

func TestPriceOfAnarchyBelowOneForDecay(t *testing.T) {
	// Under sharply decreasing R the balanced NE is *not* welfare-optimal
	// when all radios must be placed (experiment E9's headline).
	r := ratefn.Harmonic{R0: 1, Alpha: 1}
	g := mustGame(t, 2, 2, 2, r)
	ne, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	poa, err := PriceOfAnarchy(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	if poa >= 1-1e-9 {
		t.Fatalf("PoA = %v, want < 1 under sharp decay", poa)
	}
	if poa < 0.5 {
		t.Fatalf("PoA = %v suspiciously low", poa)
	}
}

func TestPriceOfAnarchyDegenerate(t *testing.T) {
	zero, err := ratefn.NewTable("zero", []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	g := mustGame(t, 2, 2, 1, zero)
	a := g.NewEmptyAlloc()
	if _, err := PriceOfAnarchy(g, a); err == nil {
		t.Fatal("zero rate function should make PoA error")
	}
}

func TestForEachAllocCountsProfiles(t *testing.T) {
	// 2 users, 2 channels, k=1: rows per user = compositions of 0 and 1
	// over 2 channels = 1 + 2 = 3; profiles = 9.
	g := mustGame(t, 2, 2, 1, ratefn.NewTDMA(1))
	count := 0
	if err := forEachAlloc(g, 1000, func(*Alloc) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("enumerated %d profiles, want 9", count)
	}
}

func TestForEachAllocCount(t *testing.T) {
	// Per-user budgets over 2 channels: budget 1 gives 3 rows (empty, c1,
	// c2); budget 2 gives 6 (totals 0, 1 and 2 compose over 2 channels in
	// 1 + 2 + 3 ways).
	for _, tc := range []struct {
		budgets []int
		want    int
	}{
		{[]int{1, 1}, 9},
		{[]int{2, 1}, 18},
	} {
		count := 0
		if err := forEachAlloc(mustHetero(t, 2, tc.budgets, ratefn.NewTDMA(1)), 1000, func(*Alloc) bool {
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count != tc.want {
			t.Fatalf("budgets %v: enumerated %d profiles, want %d", tc.budgets, count, tc.want)
		}
	}
}

func TestForEachAllocCap(t *testing.T) {
	g := mustGame(t, 4, 4, 4, ratefn.NewTDMA(1))
	err := forEachAlloc(g, 10, func(*Alloc) bool { return true })
	if err == nil {
		t.Fatal("profile cap should trigger")
	}
}

func TestHeteroForEachAllocCap(t *testing.T) {
	g := mustHetero(t, 4, []int{4, 4, 4}, ratefn.NewTDMA(1))
	if err := forEachAlloc(g, 10, func(*Alloc) bool { return true }); err == nil {
		t.Fatal("profile cap should trigger")
	}
}

func TestForEachAllocEarlyStop(t *testing.T) {
	g := mustGame(t, 2, 2, 1, ratefn.NewTDMA(1))
	count := 0
	if err := forEachAlloc(g, 1000, func(*Alloc) bool {
		count++
		return count < 4
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("early stop visited %d, want 4", count)
	}
}

func TestEnumerateNESmallGame(t *testing.T) {
	// 2 users, 2 channels, 1 radio each, constant R: NE are exactly the
	// allocations with one radio per channel (two of them) — sharing a
	// channel or idling a radio is never stable.
	g := mustGame(t, 2, 2, 1, ratefn.NewTDMA(1))
	nes, err := EnumerateNE(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(nes) != 2 {
		for _, ne := range nes {
			t.Logf("NE:\n%v", ne)
		}
		t.Fatalf("found %d NE, want 2", len(nes))
	}
	for _, ne := range nes {
		if ne.Load(0) != 1 || ne.Load(1) != 1 {
			t.Errorf("NE loads %v, want [1 1]", ne.Loads())
		}
	}
}

func TestEnumerateNEAllSatisfyTheorem(t *testing.T) {
	// Every enumerated NE of a constant-rate game satisfies Theorem 1 and
	// vice versa (spot check beyond the exhaustive equivalence test).
	g := mustGame(t, 3, 3, 2, ratefn.NewTDMA(1))
	nes, err := EnumerateNE(g, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(nes) == 0 {
		t.Fatal("no NE found")
	}
	for _, ne := range nes {
		if ok, v := TheoremNE(g, ne); !ok {
			t.Errorf("enumerated NE fails Theorem 1 (%v):\n%v", v, ne)
		}
	}
}

func TestFindParetoImprovementOnNE(t *testing.T) {
	// Theorem 2: a NE admits no Pareto improvement (constant R).
	g := mustGame(t, 2, 3, 2, ratefn.NewTDMA(1))
	ne, err := Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	improvement, err := FindParetoImprovement(g, ne, 1e-9, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if improvement != nil {
		t.Fatalf("NE should be Pareto-optimal; dominated by\n%v", improvement)
	}
}

func TestFindParetoImprovementOnWastefulAlloc(t *testing.T) {
	// Everyone crowding one channel is Pareto-dominated (constant R).
	g := mustGame(t, 2, 2, 1, ratefn.NewTDMA(1))
	bad := mustAlloc(t, [][]int{
		{1, 0},
		{1, 0},
	})
	improvement, err := FindParetoImprovement(g, bad, 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if improvement == nil {
		t.Fatal("crowded allocation should be Pareto-dominated")
	}
	// The improvement must actually dominate.
	for i := 0; i < g.Users(); i++ {
		if g.Utility(improvement, i) < g.Utility(bad, i)-1e-9 {
			t.Fatalf("claimed improvement hurts u%d", i+1)
		}
	}
}

func TestFindParetoImprovementErrors(t *testing.T) {
	g := mustGame(t, 2, 2, 1, ratefn.NewTDMA(1))
	wrong, err := NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindParetoImprovement(g, wrong, 1e-9, 1000); err == nil {
		t.Fatal("mismatched alloc should error")
	}
}

func TestAllNEOfSmallGamesAreParetoOptimal(t *testing.T) {
	// Theorem 2 verified exhaustively on tiny constant-rate games: every NE
	// is Pareto-optimal over the full strategy space.
	if testing.Short() {
		t.Skip("exhaustive Pareto sweep")
	}
	configs := []struct{ users, channels, radios int }{
		{2, 2, 1},
		{2, 2, 2},
		{2, 3, 2},
		{3, 2, 2},
	}
	for _, cfg := range configs {
		g := mustGame(t, cfg.users, cfg.channels, cfg.radios, ratefn.NewTDMA(1))
		nes, err := EnumerateNE(g, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(nes) == 0 {
			t.Fatalf("%dx%dx%d: no NE", cfg.users, cfg.channels, cfg.radios)
		}
		for _, ne := range nes {
			improvement, err := FindParetoImprovement(g, ne, 1e-9, 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if improvement != nil {
				t.Errorf("%dx%dx%d: NE\n%v\nis Pareto-dominated by\n%v",
					cfg.users, cfg.channels, cfg.radios, ne, improvement)
			}
		}
	}
}

func TestCheckProfileCapOverflowEdges(t *testing.T) {
	const maxI64 = math.MaxInt64
	cases := []struct {
		name        string
		users       int
		perUser     int64
		maxProfiles int64
		wantErr     bool
	}{
		// The boundary multiply the old `maxProfiles/perUser+1` guard
		// admitted: perUser ~ sqrt(MaxInt64), so perUser² wraps negative and
		// the final comparison wrongly accepted an astronomical space.
		{"sqrt-boundary-wrap", 2, 3037000500, maxI64, true},
		{"huge-per-user", 2, maxI64/2 + 1, maxI64, true},
		{"single-user-at-cap", 1, maxI64, maxI64, false},
		{"pow-just-over", 3, 1 << 21, maxI64, true},
		{"exact-fit", 4, 15, 50625, false},
		{"one-under", 4, 15, 50624, true},
		{"per-user-over-cap", 1, 11, 10, true},
		{"zero-users", 0, 5, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts := make([]int64, tc.users)
			for u := range counts {
				counts[u] = tc.perUser
			}
			err := checkProfileCap(counts, tc.maxProfiles)
			if tc.wantErr && err == nil {
				t.Fatalf("checkProfileCap(%d, %d, %d) accepted, want error",
					tc.users, tc.perUser, tc.maxProfiles)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("checkProfileCap(%d, %d, %d) = %v, want nil",
					tc.users, tc.perUser, tc.maxProfiles, err)
			}
		})
	}
}
