package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/multiradio/chanalloc/internal/des"
)

// drawBatch runs a batch whose jobs consume their PRNG stream; the result
// digests are what the determinism tests compare across pool sizes.
func drawBatch(t *testing.T, workers int) ([]uint64, Stats) {
	t.Helper()
	out, stats, err := Map(64, func(job int, rng *des.RNG) (uint64, error) {
		var acc uint64
		for i := 0; i <= job%7; i++ {
			acc = acc*31 + rng.Uint64()
		}
		return acc, nil
	}, Workers(workers), Seed(42))
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// TestMapDeterministicAcrossWorkerCounts is the engine's core contract:
// identical output for 1, 4 and NumCPU workers.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	base, _ := drawBatch(t, 1)
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got, stats := drawBatch(t, workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d changed results", workers)
		}
		if want := min(workers, 64); stats.Workers != want {
			t.Fatalf("workers=%d: stats report %d", workers, stats.Workers)
		}
	}
}

// TestMapOrdersResults checks fan-in keeps job order regardless of which
// worker finishes first.
func TestMapOrdersResults(t *testing.T) {
	out, _, err := Map(100, func(job int, rng *des.RNG) (int, error) {
		return job * job, nil
	}, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	for job, v := range out {
		if v != job*job {
			t.Fatalf("job %d result %d out of order", job, v)
		}
	}
}

// TestJobSeedIndependentOfWorkers pins the stream derivation: it must only
// depend on (root, job).
func TestJobSeedIndependentOfWorkers(t *testing.T) {
	seen := map[uint64]bool{}
	for job := 0; job < 1000; job++ {
		s := JobSeed(7, job)
		if seen[s] {
			t.Fatalf("job %d collides with an earlier stream seed", job)
		}
		seen[s] = true
	}
	if JobSeed(1, 0) == JobSeed(2, 0) {
		t.Fatal("different roots must give different streams")
	}
}

// TestMapError propagates the failure of the lowest-indexed failing job —
// the same one for every worker count, like everything else about a batch.
func TestMapError(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		_, _, err := Map(32, func(job int, rng *des.RNG) (int, error) {
			if job%5 == 3 {
				return 0, fmt.Errorf("job %d boom", job)
			}
			return job, nil
		}, Workers(workers))
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != "engine: job 3: job 3 boom" {
			t.Fatalf("workers=%d: error %q, want the lowest-indexed failure", workers, got)
		}
	}
}

// TestMapEdgeCases covers empty batches and invalid input.
func TestMapEdgeCases(t *testing.T) {
	out, stats, err := Map(0, func(job int, rng *des.RNG) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 || stats.Jobs != 0 {
		t.Fatalf("empty batch: out=%v stats=%+v err=%v", out, stats, err)
	}
	if _, _, err := Map[int](3, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	if _, _, err := Map(-1, func(job int, rng *des.RNG) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative job count accepted")
	}
}

// TestWorkersOptionEdgeCases pins the pool-sizing contract: workers < 1
// (explicitly or by default) means NumCPU, and the pool never exceeds the
// job count.
func TestWorkersOptionEdgeCases(t *testing.T) {
	big := 4 * runtime.NumCPU()
	for _, workers := range []int{0, -1, -100} {
		_, stats, err := Map(big, func(job int, rng *des.RNG) (int, error) {
			return job, nil
		}, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != runtime.NumCPU() {
			t.Fatalf("Workers(%d): pool size %d, want NumCPU=%d",
				workers, stats.Workers, runtime.NumCPU())
		}
	}
	// Default (no option) is NumCPU too.
	_, stats, err := Map(big, func(job int, rng *des.RNG) (int, error) { return job, nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != runtime.NumCPU() {
		t.Fatalf("default pool size %d, want NumCPU=%d", stats.Workers, runtime.NumCPU())
	}
	// A pool larger than the batch clamps to the job count.
	_, stats, err = Map(3, func(job int, rng *des.RNG) (int, error) { return job, nil }, Workers(64))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 {
		t.Fatalf("pool size %d for 3 jobs, want 3", stats.Workers)
	}
}

// TestZeroJobsEdgeCases: an empty batch succeeds with empty (non-nil)
// results and a zero-worker stats report, for any option combination.
func TestZeroJobsEdgeCases(t *testing.T) {
	out, stats, err := Map(0, func(job int, rng *des.RNG) (int, error) {
		t.Error("job function must not run for an empty batch")
		return 0, nil
	}, Workers(-2), Seed(99))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || len(out) != 0 {
		t.Fatalf("want empty non-nil results, got %v", out)
	}
	if stats.Workers != 0 || stats.Jobs != 0 || len(stats.JobTimes) != 0 {
		t.Fatalf("empty-batch stats %+v", stats)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
