package main

import (
	"fmt"
	"testing"

	"github.com/multiradio/chanalloc/internal/obs"
)

// workLedger pins the kernel work each experiment does at -seed 2006: the
// best-response DP folds it executes (kernel_dp_calls_total) and the quiet
// verdicts the exchange certificate decides without one
// (kernel_screen_quiet_total). Unlike wall time, these counts do not move
// with code layout, CPU or noise, so they are the evidence for a change
// that saves work: a change that saves work updates this ledger and shows
// the drop, and a rise needs a reason in CHANGES.md. Experiments missing
// from the map do neither kind of work.
var workLedger = map[string][2]int64{
	"theorem1":  {0, 53},
	"pareto":    {0, 21},
	"dynamics":  {694834, 20102},
	"dist":      {46, 46},
	"distbatch": {112, 114},
}

// TestWorkLedger runs every experiment at -seed 2006 with one and with two
// workers and compares the deltas of the kernel counters around each run
// with workLedger. The counters are process-global and flushed when a
// pooled workspace goes back to the pool, so the deltas are read after the
// run returns.
func TestWorkLedger(t *testing.T) {
	for _, e := range experiments {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", e.name, workers), func(t *testing.T) {
				before := obs.Flat(obs.Snapshot())
				sweepRun(t, e.name, 2006, workers)
				after := obs.Flat(obs.Snapshot())
				got := [2]int64{
					after["kernel_dp_calls_total"] - before["kernel_dp_calls_total"],
					after["kernel_screen_quiet_total"] - before["kernel_screen_quiet_total"],
				}
				if want := workLedger[e.name]; got != want {
					t.Errorf("dp calls, quiet verdicts = %d, %d; want %d, %d", got[0], got[1], want[0], want[1])
				}
			})
		}
	}
}
