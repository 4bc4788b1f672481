package dist

import (
	"runtime"
	"testing"
)

// TestRunLocalReleasesPipes pins that a finished ring leaves nothing
// reachable behind it, so a sweep's heap does not grow with its ring
// throughput. RunLocal once ran each agent over a net.Pipe whose 10 s
// deadline timers kept every finished ring live for ten seconds; it now
// calls its agents directly, and this guards against any carrier state — a
// timer, a goroutine, a cache keyed by ring — outliving the run again.
func TestRunLocalReleasesPipes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2000 rings")
	}
	g := testGame(t, 8, 4, 2)
	run := func() {
		res, err := RunLocal(g, UniformPolicies(g.Users(), func(int) Policy {
			return &GreedyPolicy{}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Converged {
			t.Fatalf("ring did not converge: %+v", res.Stats)
		}
	}
	run() // warm every lazily built structure before the baseline
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rings = 2000
	for i := 0; i < rings; i++ {
		run()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 4 << 20
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %d KB over %d finished rings", grew>>10, rings)
	if grew > limit {
		t.Fatalf("heap grew %d KB over %d finished rings (limit %d KB): finished rings are still reachable",
			grew>>10, rings, limit>>10)
	}
}
