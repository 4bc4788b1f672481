package core

import (
	"math"
	"slices"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

func mustLive(t *testing.T, channels int) *LiveGame {
	t.Helper()
	lg, err := NewLiveGame(channels, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// checkConsistent audits the live game's invariants (Check) plus two
// promises of the mutations themselves: without dynamics every budget is
// deployed in full, and the frozen snapshot accepts the live allocation.
func checkConsistent(t *testing.T, lg *LiveGame) {
	t.Helper()
	if err := lg.Check(); err != nil {
		t.Fatal(err)
	}
	a := lg.Alloc()
	if a == nil {
		return
	}
	for i := 0; i < lg.Users(); i++ {
		if k := lg.g.Budget(i); a.UserTotal(i) != k {
			t.Fatalf("row %d deploys %d radios, budget %d", i, a.UserTotal(i), k)
		}
	}
	g := lg.Frozen()
	if g == nil {
		t.Fatal("non-empty game froze to nil")
	}
	if err := g.CheckAlloc(a); err != nil {
		t.Fatalf("frozen game rejects live allocation: %v", err)
	}
}

// TestLiveGameCheckCatchesCorruption breaks each invariant Check guards
// on an otherwise healthy game and expects it to be reported. The running
// radio total is checked against a fresh sum over the budgets, so a stale
// total is caught even when every budget and class agrees.
func TestLiveGameCheckCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(lg *LiveGame)
	}{
		{"id maps to another row", func(lg *LiveGame) { lg.rowOf[lg.ids[0]] = 1 }},
		{"duplicate id", func(lg *LiveGame) { lg.ids[1] = lg.ids[0] }},
		{"id never issued", func(lg *LiveGame) { lg.nextID = 1 }},
		{"missing budget", func(lg *LiveGame) { lg.g.budgets = lg.g.budgets[:1] }},
		{"budget below deployment", func(lg *LiveGame) { lg.g.budgets[0] = 1 }},
		{"view too small", func(lg *LiveGame) { lg.g.view = NewRateView(lg.g.rate, 1, 3) }},
		{"view budget domain too small", func(lg *LiveGame) { lg.g.view = NewRateView(lg.g.rate, 64, 1) }},
		{"running total one high", func(lg *LiveGame) { lg.g.total++ }},
		{"running total one low", func(lg *LiveGame) { lg.g.total-- }},
		{"budget raised without the running total", func(lg *LiveGame) {
			// User 2 deploys its one radio: a budget of 2 keeps the row
			// within budget, and re-interning keeps the class index exact.
			lg.g.budgets[2] = 2
			lg.classes.Set(2, 2, lg.alloc.Row(2))
		}},
		{"running total left on an empty game", func(lg *LiveGame) {
			for lg.Users() > 0 {
				if err := lg.Leave(lg.ids[0]); err != nil {
					panic(err)
				}
			}
			lg.g.total = 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lg := mustLive(t, 4)
			for _, k := range []int{3, 2, 1} {
				if _, err := lg.Join(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Check(); err != nil {
				t.Fatalf("healthy game: %v", err)
			}
			tc.corrupt(lg)
			if err := lg.Check(); err == nil {
				t.Fatal("corruption not reported")
			}
		})
	}
}

func TestLiveGameJoinLeaveBudget(t *testing.T) {
	lg := mustLive(t, 4)
	id1, err := lg.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := lg.Join(3)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := lg.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 || id2 != 2 || id3 != 3 {
		t.Fatalf("ids = %d,%d,%d, want 1,2,3", id1, id2, id3)
	}
	checkConsistent(t, lg)
	if got := lg.Alloc().TotalRadios(); got != 6 {
		t.Fatalf("total radios = %d, want 6", got)
	}

	// Departure compacts with swap-with-last: id3 moves into id1's row.
	if err := lg.Leave(id1); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, lg)
	if row, ok := lg.RowOf(id3); !ok || row != 0 {
		t.Fatalf("after leave, id3 at row %d/%v, want 0", row, ok)
	}
	if _, ok := lg.RowOf(id1); ok {
		t.Fatal("departed id1 still mapped")
	}
	if err := lg.Leave(id1); err == nil {
		t.Fatal("double leave succeeded")
	}

	// Budget change keeps full deployment at the new budget.
	if err := lg.SetBudget(id2, 1); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, lg)
	if k, _ := lg.BudgetOf(id2); k != 1 {
		t.Fatalf("budget of id2 = %d, want 1", k)
	}
	if err := lg.SetBudget(id2, 4); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, lg)
	if got := lg.Alloc().TotalRadios(); got != 5 {
		t.Fatalf("total radios = %d, want 5", got)
	}

	// Validation errors leave state untouched and record no churn.
	lg.TakeChurn()
	budgets, alloc := lg.Budgets(), lg.Alloc().Clone()
	if err := lg.SetBudget(id2, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if err := lg.SetBudget(id2, 5); err == nil {
		t.Fatal("budget above channels accepted")
	}
	if _, err := lg.Join(0); err == nil {
		t.Fatal("join budget 0 accepted")
	}
	if _, err := lg.Join(9); err == nil {
		t.Fatal("join budget above channels accepted")
	}
	if !slices.Equal(lg.Budgets(), budgets) || !lg.Alloc().Equal(alloc) {
		t.Fatal("failed mutations changed the game")
	}
	if ch := lg.TakeChurn(); slices.Contains(ch.Dirty, true) || ch.Decreased || len(ch.Suspects) != 0 {
		t.Fatalf("failed mutations recorded churn %+v", ch)
	}
	checkConsistent(t, lg)

	// Drain to empty and come back.
	if err := lg.Leave(id2); err != nil {
		t.Fatal(err)
	}
	if err := lg.Leave(id3); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, lg)
	if lg.Frozen() != nil {
		t.Fatal("empty game froze to a game")
	}
	if _, err := lg.Join(4); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, lg)
}

// TestLiveGameLegalStamp pins which writes advance the legality stamp:
// Join, SetBudget and Leave move it to the new generation from a current
// stamp, a write through the read-only Alloc leaves it behind, and from a
// stale stamp no mutator moves it, so CheckAlloc runs the full scan and
// refuses a corrupt row however much churn followed it.
func TestLiveGameLegalStamp(t *testing.T) {
	lg := mustLive(t, 4)
	current := func(step string) {
		t.Helper()
		if lg.alloc != nil && lg.legalAt != lg.alloc.gen {
			t.Fatalf("%s: stamp %d behind generation %d", step, lg.legalAt, lg.alloc.gen)
		}
		checkConsistent(t, lg)
	}
	id1, err := lg.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	current("first join")
	id2, err := lg.Join(3)
	if err != nil {
		t.Fatal(err)
	}
	current("join")
	if err := lg.SetBudget(id2, 4); err != nil {
		t.Fatal(err)
	}
	current("budget grow")
	if err := lg.SetBudget(id2, 2); err != nil {
		t.Fatal(err)
	}
	current("budget shrink")
	id3, err := lg.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Leave(id1); err != nil {
		t.Fatal(err)
	}
	current("leave")

	// A legal write behind the game's back: the full scan re-stamps.
	a := lg.Alloc()
	row, _ := lg.RowOf(id3)
	moved := slices.Clone(a.m[row])
	slices.Reverse(moved)
	if err := a.SetRow(row, moved); err != nil {
		t.Fatal(err)
	}
	if lg.legal() {
		t.Fatal("stamp current after a write through Alloc")
	}
	gen, err := lg.CheckAlloc()
	if err != nil || gen != a.gen || !lg.legal() {
		t.Fatalf("CheckAlloc after a legal write = %d, %v (generation %d, stamp %d)", gen, err, a.gen, lg.legalAt)
	}

	// ExtendLegal moves only a stamp that is still at from.
	stale := gen
	if err := a.Add(row, 0, 0); err != nil {
		t.Fatal(err)
	}
	lg.ExtendLegal(stale - 1)
	if lg.legal() {
		t.Fatal("ExtendLegal moved a stamp that was not at from")
	}
	lg.ExtendLegal(stale)
	if !lg.legal() {
		t.Fatal("ExtendLegal left a stamp that was at from")
	}

	// An over-budget row, then churn by every mutator: still refused.
	c := 0
	for a.Radios(row, c) > 0 {
		c++
	}
	if err := a.Add(row, c, 1); err != nil {
		t.Fatal(err)
	}
	id4, err := lg.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetBudget(id4, 2); err != nil {
		t.Fatal(err)
	}
	if err := lg.Leave(id4); err != nil {
		t.Fatal(err)
	}
	if lg.legal() {
		t.Fatal("a mutator moved a stale stamp")
	}
	if _, err := lg.CheckAlloc(); err == nil {
		t.Fatal("CheckAlloc accepted an over-budget row after churn")
	}
	if lg.legal() {
		t.Fatal("stamp current over an over-budget row")
	}

	// Emptying the game and joining again starts a fresh, vouched stamp.
	for lg.Users() > 0 {
		if err := lg.Leave(lg.ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lg.CheckAlloc(); err != nil {
		t.Fatalf("CheckAlloc on the empty game: %v", err)
	}
	if _, err := lg.Join(2); err != nil {
		t.Fatal(err)
	}
	current("join after empty")
}

// TestGameCheckRow: CheckRow refuses what CheckAlloc refuses in one row,
// a row of the wrong length too, and accepts a row within budget.
func TestGameCheckRow(t *testing.T) {
	g := mustHetero(t, 3, []int{1, 2}, ratefn.NewTDMA(54))
	for _, tc := range []struct {
		user int
		row  []int
		ok   bool
	}{
		{0, []int{1, 0, 0}, true},
		{0, []int{0, 0, 0}, true},
		{1, []int{1, 0, 1}, true},
		{0, []int{1, 1, 0}, false},
		{1, []int{0, 3, 0}, false},
		{1, []int{math.MaxInt, math.MaxInt, 2}, false}, // cells wrap the sum to 0
		{1, []int{1, 1}, false},
	} {
		if err := g.CheckRow(tc.user, tc.row); (err == nil) != tc.ok {
			t.Errorf("CheckRow(%d, %v) = %v, want ok %v", tc.user, tc.row, err, tc.ok)
		}
	}
}

func TestLiveGameChurnRecord(t *testing.T) {
	lg := mustLive(t, 3)
	id1, _ := lg.Join(2) // seeds channels 0,1
	ch := lg.TakeChurn()
	if !ch.Dirty[0] || !ch.Dirty[1] || ch.Dirty[2] {
		t.Fatalf("join dirty = %v, want channels 0,1", ch.Dirty)
	}
	if ch.Decreased {
		t.Fatal("pure join reported a load decrease")
	}
	if !ch.Suspects[id1] || len(ch.Suspects) != 1 {
		t.Fatalf("join churn = %+v, want suspect id1 alone", ch)
	}

	// TakeChurn reset: nothing pending.
	ch = lg.TakeChurn()
	if slices.Contains(ch.Dirty, true) || ch.Decreased || len(ch.Suspects) != 0 {
		t.Fatalf("churn after take = %+v, want empty", ch)
	}

	id2, _ := lg.Join(1)
	if err := lg.Leave(id2); err != nil {
		t.Fatal(err)
	}
	ch = lg.TakeChurn()
	if !ch.Decreased {
		t.Fatal("leave did not set Decreased")
	}
	if len(ch.Suspects) != 0 {
		t.Fatalf("suspects %v after a join and the joiner's leave, want none", ch.Suspects)
	}

	// Budget shrink decreases loads; growth alone does not.
	if err := lg.SetBudget(id1, 3); err != nil {
		t.Fatal(err)
	}
	ch = lg.TakeChurn()
	if ch.Decreased || !ch.Suspects[id1] {
		t.Fatalf("budget grow churn = %+v", ch)
	}
	if err := lg.SetBudget(id1, 1); err != nil {
		t.Fatal(err)
	}
	ch = lg.TakeChurn()
	if !ch.Decreased || !ch.Suspects[id1] {
		t.Fatalf("budget shrink churn = %+v", ch)
	}
	// No-op budget set: an empty churn record.
	if err := lg.SetBudget(id1, 1); err != nil {
		t.Fatal(err)
	}
	if ch = lg.TakeChurn(); slices.Contains(ch.Dirty, true) || ch.Decreased || len(ch.Suspects) != 0 {
		t.Fatalf("no-op budget change recorded churn %+v", ch)
	}
}

// TestLiveGameFrozenMemo pins that Frozen hands out the live game itself,
// edited in place: after every join, leave and budget change it reflects
// the current budgets and matches a fresh NewHeteroGame over them bit for
// bit on Utility, Welfare, Potential, Radios, HasConflict and the
// all-placed welfare optimum (the view's larger domain must not show), and
// a Frozen call after a mutation allocates nothing.
func TestLiveGameFrozenMemo(t *testing.T) {
	lg := mustLive(t, 3)
	matchesFresh := func(step string) {
		t.Helper()
		g := lg.Frozen()
		if g != lg.g {
			t.Fatalf("%s: Frozen returned %p, not the live game %p", step, g, lg.g)
		}
		ref, err := NewHeteroGame(lg.Channels(), lg.Budgets(), lg.Rate())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Budgets(), ref.Budgets()) {
			t.Fatalf("%s: budgets %v, fresh game %v", step, g.Budgets(), ref.Budgets())
		}
		a := lg.Alloc()
		for i := 0; i < lg.Users(); i++ {
			if got, want := g.Utility(a, i), ref.Utility(a, i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: user %d utility %v via the live game, %v via a fresh game", step, i, got, want)
			}
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"welfare", g.Welfare(a), ref.Welfare(a)},
			{"potential", g.Potential(a), ref.Potential(a)},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s: %s %v via the live game, %v via a fresh game", step, f.name, f.got, f.want)
			}
		}
		if g.Radios() != ref.Radios() || g.HasConflict() != ref.HasConflict() {
			t.Fatalf("%s: Radios %d, HasConflict %v; fresh game %d, %v",
				step, g.Radios(), g.HasConflict(), ref.Radios(), ref.HasConflict())
		}
		opt, _ := OptimalWelfareAllPlaced(g)
		refOpt, _ := OptimalWelfareAllPlaced(ref)
		if math.Float64bits(opt) != math.Float64bits(refOpt) {
			t.Fatalf("%s: welfare optimum %v via the live game, %v via a fresh game", step, opt, refOpt)
		}
	}
	join := func(k int) UserID {
		t.Helper()
		id, err := lg.Join(k)
		if err != nil {
			t.Fatal(err)
		}
		matchesFresh("join")
		return id
	}
	// Radios goes 2, 2, 0 (mixed), 2; HasConflict false, true, ..., false.
	id1 := join(2)
	opt1, _ := OptimalWelfareAllPlaced(lg.Frozen())
	id2 := join(2)
	if opt2, _ := OptimalWelfareAllPlaced(lg.Frozen()); opt2 <= opt1 {
		t.Fatalf("all-placed optimum did not grow with the population: %v -> %v", opt1, opt2)
	}
	id3 := join(1)
	if err := lg.SetBudget(id3, 2); err != nil {
		t.Fatal(err)
	}
	matchesFresh("budget grow")
	if err := lg.SetBudget(id2, 1); err != nil {
		t.Fatal(err)
	}
	matchesFresh("budget shrink")
	if err := lg.Leave(id1); err != nil {
		t.Fatal(err)
	}
	matchesFresh("leave")
	if err := lg.Leave(id2); err != nil {
		t.Fatal(err)
	}
	matchesFresh("leave to one user")

	k := 2
	allocs := testing.AllocsPerRun(50, func() {
		k = 3 - k
		if err := lg.SetBudget(id3, k); err != nil {
			t.Fatal(err)
		}
		if lg.Frozen() == nil {
			t.Fatal("non-empty game froze to nil")
		}
	})
	mutateOnly := testing.AllocsPerRun(50, func() {
		k = 3 - k
		if err := lg.SetBudget(id3, k); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs per budget change with Frozen, %v without", allocs, mutateOnly)
	if allocs != mutateOnly {
		t.Fatalf("Frozen after a budget change allocates: %v allocs with it, %v without", allocs, mutateOnly)
	}
}

// TestLiveGameViewGrowth drives enough joins to force several view
// rebuilds and checks utilities stay identical to a fresh game at each
// population size.
func TestLiveGameViewGrowth(t *testing.T) {
	lg := mustLive(t, 5)
	for n := 0; n < 30; n++ {
		if _, err := lg.Join(1 + n%4); err != nil {
			t.Fatal(err)
		}
		checkConsistent(t, lg)
	}
	ref, err := NewHeteroGame(lg.Channels(), lg.Budgets(), lg.Rate())
	if err != nil {
		t.Fatal(err)
	}
	a := lg.Alloc()
	g := lg.Frozen()
	for i := 0; i < lg.Users(); i++ {
		if got, want := g.Utility(a, i), ref.Utility(a, i); got != want {
			t.Fatalf("user %d utility drifted after view growth: %v vs %v", i, got, want)
		}
	}
	if got, want := g.Welfare(a), ref.Welfare(a); got != want {
		t.Fatalf("welfare drifted after view growth: %v vs %v", got, want)
	}
	if got, want := g.Potential(a), ref.Potential(a); got != want {
		t.Fatalf("potential drifted after view growth: %v vs %v", got, want)
	}
}
