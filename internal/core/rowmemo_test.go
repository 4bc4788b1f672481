package core

import (
	"slices"
	"testing"

	"github.com/multiradio/chanalloc/internal/des"
)

// memoAlloc builds a users×channels allocation whose user i deploys
// 1 + i%maxBudget radios on seeded random channels.
func memoAlloc(tb testing.TB, users, channels, maxBudget int, seed uint64) *Alloc {
	tb.Helper()
	a, err := NewAlloc(users, channels)
	if err != nil {
		tb.Fatal(err)
	}
	rng := des.NewRNG(seed)
	for i := 0; i < users; i++ {
		for r := 0; r <= i%maxBudget; r++ {
			if err := a.Add(i, rng.Intn(channels), 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return a
}

// BenchmarkRowMemo times one grouping pass over a 1024-user, 16-channel
// allocation: reset, then one RowRep per user.
func BenchmarkRowMemo(b *testing.B) {
	a := memoAlloc(b, 1024, 16, 4, 1)
	ws := NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.ResetRowMemo(a.Users())
		for u := 0; u < a.Users(); u++ {
			ws.RowRep(a, u, 1+u%4)
		}
	}
	b.ReportMetric(float64(len(ws.RowMisses())), "classes")
}

// TestRowRepGroupsExactPairs pins the memo's classes: users are grouped
// iff budget and row agree entry by entry, the first user of a class is
// its representative, and RowMisses lists the representatives in order.
func TestRowRepGroupsExactPairs(t *testing.T) {
	a, err := AllocFromMatrix([][]int{
		{1, 0, 1}, // 0: class A (budget 2)
		{1, 0, 1}, // 1: A
		{1, 0, 1}, // 2: same row, budget 3 -> class B
		{0, 1, 1}, // 3: class C
		{1, 0, 1}, // 4: A
		{0, 1, 1}, // 5: C
	})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{2, 2, 3, 2, 2, 2}
	wantRep := []int{0, 0, 2, 3, 0, 3}
	ws := NewWorkspace()
	for round := 0; round < 2; round++ {
		ws.ResetRowMemo(a.Users())
		for i, k := range budgets {
			rep, seen := ws.RowRep(a, i, k)
			if rep != wantRep[i] || seen != (rep != i) {
				t.Fatalf("round %d: RowRep(user %d) = (%d, %v), want representative %d", round, i, rep, seen, wantRep[i])
			}
		}
		if got := ws.RowMisses(); !slices.Equal(got, []int{0, 2, 3}) {
			t.Fatalf("round %d: misses %v, want [0 2 3]", round, got)
		}
	}
}

// TestRowRepLargeEntries pins that radio counts and budgets of any size
// key the memo exactly: rows that agree modulo 256 stay distinct.
func TestRowRepLargeEntries(t *testing.T) {
	a, err := AllocFromMatrix([][]int{
		{300, 4},
		{44, 260},
		{300, 4},
		{44, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.ResetRowMemo(a.Users())
	for i, want := range []int{0, 1, 0, 3} {
		if rep, _ := ws.RowRep(a, i, 304); rep != want {
			t.Fatalf("user %d: representative %d, want %d", i, rep, want)
		}
	}
	if rep, seen := ws.RowRep(a, 2, 304+256); seen || rep != 2 {
		t.Fatalf("budget 560 answered by user %d (seen %v)", rep, seen)
	}
}

// TestRowRepCollisionNotMemoised forces a hash collision: a different
// (budget, row) already holds the user's hash, so the user gets no memo
// answer and stays unregistered, and the holder's class is unaffected.
func TestRowRepCollisionNotMemoised(t *testing.T) {
	a, err := AllocFromMatrix([][]int{{1, 1, 0}, {0, 1, 1}, {0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.ResetRowMemo(a.Users())
	ws.RowRep(a, 0, 2)
	// Plant user 0 under user 1's hash, as a colliding hash would.
	ws.rowReps[rowHash(a, 1, 2)] = rowRep{user: 0, budget: 2}
	for _, i := range []int{1, 2} {
		if rep, seen := ws.RowRep(a, i, 2); seen || rep != i {
			t.Fatalf("user %d: answered by user %d (seen %v) across a collision", i, rep, seen)
		}
	}
	if rep, seen := ws.RowRep(a, 0, 2); !seen || rep != 0 {
		t.Fatalf("user 0's own class answered (%d, %v)", rep, seen)
	}
	if got := ws.RowMisses(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("misses %v, want [0 1 2]", got)
	}
}

// TestRowMemoSteadyStateAllocs pins that a workspace that has grouped an
// allocation once groups it again without allocating.
func TestRowMemoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a := memoAlloc(t, 512, 16, 4, 2)
	ws := NewWorkspace()
	pass := func() {
		ws.ResetRowMemo(a.Users())
		for i := 0; i < a.Users(); i++ {
			ws.RowRep(a, i, 1+i%4)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("grouping pass allocates %v per run, want 0", allocs)
	}
}
