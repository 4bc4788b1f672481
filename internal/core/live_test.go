package core

import (
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
		if a.UserTotal(i) != lg.budgets[i] {
			t.Fatalf("row %d deploys %d radios, budget %d", i, a.UserTotal(i), lg.budgets[i])
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
// on an otherwise healthy game and expects it to be reported.
func TestLiveGameCheckCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(lg *LiveGame)
	}{
		{"id maps to another row", func(lg *LiveGame) { lg.rowOf[lg.ids[0]] = 1 }},
		{"duplicate id", func(lg *LiveGame) { lg.ids[1] = lg.ids[0] }},
		{"id never issued", func(lg *LiveGame) { lg.nextID = 1 }},
		{"missing budget", func(lg *LiveGame) { lg.budgets = lg.budgets[:1] }},
		{"budget below deployment", func(lg *LiveGame) { lg.budgets[0] = 1 }},
		{"view too small", func(lg *LiveGame) { lg.viewLoad = 1 }},
		{"view budget domain too small", func(lg *LiveGame) { lg.viewOwn = 1 }},
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

	// Validation errors leave state untouched.
	gen := lg.Generation()
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
	if lg.Generation() != gen {
		t.Fatal("failed mutations bumped the generation")
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
	if !ch.Suspects[id1] || ch.Events != 1 {
		t.Fatalf("join churn = %+v, want suspect id1, 1 event", ch)
	}

	// TakeChurn reset: nothing pending.
	ch = lg.TakeChurn()
	if ch.Events != 0 || ch.Decreased || len(ch.Suspects) != 0 {
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
	if ch.Suspects[id2] {
		t.Fatal("departed user still a suspect")
	}
	if ch.Events != 2 {
		t.Fatalf("events = %d, want 2", ch.Events)
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
	// No-op budget set: no event, no suspects.
	if err := lg.SetBudget(id1, 1); err != nil {
		t.Fatal(err)
	}
	if lg.PendingEvents() != 0 {
		t.Fatal("no-op budget change recorded an event")
	}
}

// TestLiveGameFrozenMemo pins the generation-counter semantics: one frozen
// snapshot per generation, a new snapshot after every mutation.
func TestLiveGameFrozenMemo(t *testing.T) {
	lg := mustLive(t, 3)
	if _, err := lg.Join(2); err != nil {
		t.Fatal(err)
	}
	g1 := lg.Frozen()
	if g2 := lg.Frozen(); g2 != g1 {
		t.Fatal("same-generation Frozen rebuilt the snapshot")
	}
	opt1, _ := OptimalWelfareAllPlaced(g1)
	if _, err := lg.Join(2); err != nil {
		t.Fatal(err)
	}
	g2 := lg.Frozen()
	if g2 == g1 {
		t.Fatal("mutation did not invalidate the frozen snapshot")
	}
	opt2, _ := OptimalWelfareAllPlaced(g2)
	if opt2 <= opt1 {
		t.Fatalf("all-placed optimum did not grow with the population: %v -> %v", opt1, opt2)
	}

	// The snapshot agrees with a from-scratch game on utilities and the
	// welfare optimum (the view's larger domain must not show).
	ref, err := NewHeteroGame(lg.Channels(), lg.Budgets(), lg.Rate())
	if err != nil {
		t.Fatal(err)
	}
	a := lg.Alloc()
	for i := 0; i < lg.Users(); i++ {
		if got, want := g2.Utility(a, i), ref.Utility(a, i); got != want {
			t.Fatalf("user %d utility %v via live view, %v via fresh game", i, got, want)
		}
	}
	refOpt, _ := OptimalWelfareAllPlaced(ref)
	if opt2 != refOpt {
		t.Fatalf("welfare optimum %v via live view, %v via fresh game", opt2, refOpt)
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
