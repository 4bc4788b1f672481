package core

import (
	"flag"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var quickSeed = flag.Int64("quickseed", 0, "seed for the testing/quick property tests; 0 draws one from the clock")

// quickConfig returns a testing/quick config running maxCount cases from a
// logged seed, so a failing property can be replayed with -quickseed.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	seed := *quickSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("quick seed %d (replay with -quickseed=%d)", seed, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
