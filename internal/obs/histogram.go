package obs

import "sync/atomic"

// Histogram is a fixed-bucket histogram over int64 observations (latency
// in nanoseconds, sizes in bytes, round counts). Buckets are cumulative at
// snapshot time but stored per-bucket, so Observe is one bounds scan plus
// three atomic adds — no locks, no allocations, safe from any number of
// goroutines. Bounds are fixed at registration: a histogram's shape, like
// a metric's name, is a stable contract for whatever scrapes it.
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds; implicit +Inf after
	counts []atomic.Uint64
	sum    atomic.Int64
	n      atomic.Uint64
}

// newHistogram builds a histogram over the given upper bounds. Bounds must
// be strictly increasing; a final +Inf bucket is always appended. Nil or
// empty bounds mean a single +Inf bucket (count/sum only).
func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// snapshot renders the cumulative bucket view (Prometheus semantics: each
// bucket counts observations <= its bound, the last is +Inf).
func (h *Histogram) snapshot() (count uint64, sum int64, buckets []Bucket) {
	buckets = make([]Bucket, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := BucketInf
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		buckets[i] = Bucket{Le: le, Count: cum}
	}
	return h.n.Load(), h.sum.Load(), buckets
}

// LatencyBucketsNS is the default bound set for nanosecond latency
// histograms: decades from 1µs to 10s. Dispatch round-trips sit around
// 10µs–1ms, live-event service around 10µs–10ms; decades keep the scan
// short (8 compares) while still separating "fast path" from "something
// is wrong".
var LatencyBucketsNS = []int64{
	1_000, 10_000, 100_000, // 1µs, 10µs, 100µs
	1_000_000, 10_000_000, 100_000_000, // 1ms, 10ms, 100ms
	1_000_000_000, 10_000_000_000, // 1s, 10s
}

// SmallCountBuckets suits small integer distributions such as convergence
// rounds or window depths, resolving 0..64 in powers of two.
var SmallCountBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64}
