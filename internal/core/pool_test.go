package core

import (
	"runtime"
	"testing"
	"weak"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// TestWorkspacePoolSteadyStateAllocs pins the point of the pool: once a
// workspace has served one best-response call, borrowing it again for the
// same game dimensions allocates nothing.
func TestWorkspacePoolSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	g, err := NewGame(6, 5, 3, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	a := g.NewEmptyAlloc()
	for i := 0; i < g.Users(); i++ {
		for j := 0; j < g.Radios(); j++ {
			if err := a.Add(i, (i+j)%g.Channels(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	pool := NewWorkspacePool()
	// Warm the pool: one workspace, grown to the game's dimensions.
	ws := pool.Get()
	if _, _, err := g.BestResponseInto(ws, a, 0); err != nil {
		t.Fatal(err)
	}
	pool.Put(ws)
	allocs := testing.AllocsPerRun(100, func() {
		ws := pool.Get()
		if _, _, err := g.BestResponseInto(ws, a, 1); err != nil {
			t.Fatal(err)
		}
		pool.Put(ws)
	})
	if allocs != 0 {
		t.Fatalf("pooled best response allocates %v per op, want 0", allocs)
	}
	// The deviation test rebuilds the channel summary on every borrow (Put
	// drops its key) and still allocates nothing.
	allocs = testing.AllocsPerRun(100, func() {
		ws := pool.Get()
		if _, _, _, err := g.DeviationInto(ws, a, 1, DefaultEps); err != nil {
			t.Fatal(err)
		}
		pool.Put(ws)
	})
	if allocs != 0 {
		t.Fatalf("pooled deviation test allocates %v per op, want 0", allocs)
	}
}

// TestWorkspacePoolPutDropsSummary: a workspace's channel summary keeps
// the allocation it was built for alive until the workspace goes back to
// the pool, and not after.
func TestWorkspacePoolPutDropsSummary(t *testing.T) {
	g, err := NewGame(4, 3, 2, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWorkspacePool()
	var ws *Workspace
	ref := func() weak.Pointer[Alloc] {
		a := g.NewEmptyAlloc()
		if err := a.Add(0, 1, 2); err != nil {
			t.Fatal(err)
		}
		ws = pool.Get()
		if _, _, _, err := g.DeviationInto(ws, a, 0, DefaultEps); err != nil {
			t.Fatal(err)
		}
		if ws.sum.a != a || ws.sum.rv != g.View() {
			t.Fatalf("summary key (%p, %p), want the allocation %p and view %p", ws.sum.a, ws.sum.rv, a, g.View())
		}
		pool.Put(ws)
		return weak.Make(a)
	}()
	if ws.sum.a != nil || ws.sum.rv != nil {
		t.Fatalf("pooled workspace still references allocation %p and view %p", ws.sum.a, ws.sum.rv)
	}
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("allocation still reachable after its workspace went back to the pool")
	}
}

func TestWorkspacePoolPutNil(t *testing.T) {
	pool := NewWorkspacePool()
	pool.Put(nil) // must not panic or poison the pool
	if ws := pool.Get(); ws == nil {
		t.Fatal("Get returned nil workspace")
	}
}

func TestAllocAppendRemoveRows(t *testing.T) {
	a, err := NewAlloc(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mustSet := func(i int, row []int) {
		t.Helper()
		if err := a.SetRow(i, row); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, []int{1, 0, 2})
	mustSet(1, []int{0, 1, 1})

	// Append: loads unchanged, new row zero.
	row := a.AppendRow()
	if row != 2 || a.Users() != 3 {
		t.Fatalf("AppendRow gave row %d of %d users, want 2 of 3", row, a.Users())
	}
	if got := a.Loads(); got[0] != 1 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("loads after append = %v, want [1 1 3]", got)
	}
	mustSet(2, []int{2, 0, 0})

	// Swap-remove the FIRST row: last row (u2) moves into slot 0.
	if err := a.RemoveRowSwap(0); err != nil {
		t.Fatal(err)
	}
	if a.Users() != 2 {
		t.Fatalf("users after remove = %d, want 2", a.Users())
	}
	if got := a.Row(0); got[0] != 2 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("row 0 after swap-remove = %v, want old last row [2 0 0]", got)
	}
	if got := a.Loads(); got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("loads after remove = %v, want [2 1 1]", got)
	}
	if a.TotalRadios() != 4 {
		t.Fatalf("total radios = %d, want 4", a.TotalRadios())
	}

	// Removing the last row in index order needs no swap.
	if err := a.RemoveRowSwap(1); err != nil {
		t.Fatal(err)
	}
	if a.Users() != 1 || a.Load(1) != 0 || a.Load(2) != 0 || a.Load(0) != 2 {
		t.Fatalf("after removing row 1: users=%d loads=%v", a.Users(), a.Loads())
	}

	// Out-of-range errors.
	if err := a.RemoveRowSwap(5); err == nil {
		t.Fatal("RemoveRowSwap(5) succeeded on 1-user alloc")
	}
	if err := a.RemoveRowSwap(-1); err == nil {
		t.Fatal("RemoveRowSwap(-1) succeeded")
	}
}
