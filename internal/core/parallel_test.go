package core

import (
	"runtime"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// TestEnumerateNEParallelMatchesSerial is the sharding contract: identical
// NE list — same equilibria, same order — for every worker count, on
// uniform games and on mixed-budget games, whose users' row tables differ
// in length from shard digit to shard digit.
func TestEnumerateNEParallelMatchesSerial(t *testing.T) {
	var games []*Game
	for _, cfg := range []struct{ n, c, k int }{
		{1, 3, 2}, {2, 2, 2}, {2, 3, 2}, {3, 2, 2}, {3, 3, 2},
	} {
		games = append(games, mustGame(t, cfg.n, cfg.c, cfg.k, ratefn.NewTDMA(1)))
	}
	for _, budgets := range [][]int{{2, 2, 1}, {1, 2, 2, 3}} {
		games = append(games, mustHetero(t, 3, budgets, ratefn.NewTDMA(1)))
	}
	for _, g := range games {
		serial, err := EnumerateNE(g, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) == 0 {
			t.Fatalf("C=%d budgets %v: no NE found", g.Channels(), g.Budgets())
		}
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			parallel, err := EnumerateNEParallel(g, 10_000_000, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(parallel) != len(serial) {
				t.Fatalf("C=%d budgets %v workers=%d: %d NE, serial found %d",
					g.Channels(), g.Budgets(), workers, len(parallel), len(serial))
			}
			for i := range serial {
				if !serial[i].Equal(parallel[i]) {
					t.Fatalf("C=%d budgets %v workers=%d: NE %d differs from serial",
						g.Channels(), g.Budgets(), workers, i)
				}
			}
		}
	}
}

// TestEnumerateNEParallelTwoUserSharding pins the few-strategy/many-user
// regime: when len(rows) < 2×workers the enumeration shards on the first
// TWO users' rows, and the output must still be serial-identical — same
// equilibria, same order — for every worker count. A 2-channel 1-radio
// game has only 3 strategy rows per user, so any pool beyond one worker
// takes the pair-sharded path.
func TestEnumerateNEParallelTwoUserSharding(t *testing.T) {
	for _, cfg := range []struct{ n, c, k int }{
		{5, 2, 1}, // 3 rows, 243 profiles: pair-sharded for workers >= 2
		{4, 2, 2}, // 6 rows: pair-sharded for workers >= 4
		{6, 2, 1}, // 3 rows, 729 profiles
	} {
		g, err := NewGame(cfg.n, cfg.c, cfg.k, ratefn.NewTDMA(1))
		if err != nil {
			t.Fatal(err)
		}
		serial, err := EnumerateNE(g, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) == 0 {
			t.Fatalf("%dx%dx%d: serial enumeration found no NE", cfg.n, cfg.c, cfg.k)
		}
		// workers spanning both sharding depths, including pools larger
		// than the squared shard count.
		for _, workers := range []int{1, 2, 4, 16, 64} {
			parallel, err := EnumerateNEParallel(g, 10_000_000, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(parallel) != len(serial) {
				t.Fatalf("%dx%dx%d workers=%d: %d NE, serial found %d",
					cfg.n, cfg.c, cfg.k, workers, len(parallel), len(serial))
			}
			for i := range serial {
				if !serial[i].Equal(parallel[i]) {
					t.Fatalf("%dx%dx%d workers=%d: NE %d differs from serial",
						cfg.n, cfg.c, cfg.k, workers, i)
				}
			}
		}
	}
}

// TestEnumerateNEParallelSingleUser: a 1-user game cannot pair-shard and
// must still enumerate correctly with a large pool.
func TestEnumerateNEParallelSingleUser(t *testing.T) {
	g, err := NewGame(1, 3, 2, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := EnumerateNE(g, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EnumerateNEParallel(g, 10_000_000, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("%d NE, serial found %d", len(parallel), len(serial))
	}
	for i := range serial {
		if !serial[i].Equal(parallel[i]) {
			t.Fatalf("NE %d differs from serial", i)
		}
	}
}

// TestEnumerateNEParallelHonoursCap keeps the exhaustive-search guard.
func TestEnumerateNEParallelHonoursCap(t *testing.T) {
	g, err := NewGame(4, 4, 3, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumerateNEParallel(g, 100, 2); err == nil {
		t.Fatal("profile cap not enforced")
	}
}

// TestForEachRestSurfacesSetRowError pins the error plumbing of the
// reference grid walker (productWalk): an invariant-breaking allocation (here, strategy rows whose
// length does not match the game's channel count) must surface as an error
// instead of silently truncating the enumeration.
func TestForEachRestSurfacesSetRowError(t *testing.T) {
	g, err := NewGame(2, 3, 2, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	a := g.NewEmptyAlloc()
	badRows := [][]int{{1, 1}} // two channels where the game has three
	calls := 0
	rowFor := func(_, ri int) []int { return badRows[ri] }
	err = productWalk(a, 0, []int{1, 1}, rowFor, func(*Alloc) bool {
		calls++
		return true
	})
	if err == nil {
		t.Fatal("invariant-breaking SetRow must surface, not truncate the walk")
	}
	if want := "setting row for user 0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times on an invalid allocation", calls)
	}
}
