package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie strictly beyond a percentile before
// it is reported as a tail: with fewer, the "p99" of a run is one or two
// unlucky samples and moves with scheduler jitter, not with the program.
const minTail = 10

// steadyTailPct is the tail percentile every workload prints as
// latency_p90_us. Higher percentiles are printed too, but on a shared host
// their run-to-run spread follows the hypervisor's steal time more than
// the program.
const steadyTailPct = 90

// beyond counts the samples of an n-sample run that lie strictly above the
// p-th percentile (nearest-rank definition).
func beyond(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether an n-sample run may report its p-th
// percentile: at least minTail samples must lie beyond it.
func tailSupported(n int, p float64) bool { return beyond(n, p) >= minTail }

// percentile returns the nearest-rank p-th percentile of xs; xs is sorted
// in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median is the middle value (mean of the middle two for even counts); xs
// is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// pctName renders a percentile for report lines ("p99", "p99.9").
func pctName(p float64) string { return fmt.Sprintf("p%g", p) }
