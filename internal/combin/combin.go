// Package combin provides the combinatorial enumeration primitives used by
// the exhaustive game-theory oracles: integer compositions (strategy spaces
// of a multi-radio user) and cartesian products over per-player strategy
// sets.
//
// All iterators are allocation-conscious: they reuse an internal buffer and
// hand the caller a view that must be copied if retained, mirroring the
// contract of bufio.Scanner.Bytes.
package combin

import "fmt"

// Compositions enumerates all length-parts vectors of non-negative integers
// summing to exactly total. It calls fn with a reused buffer for each
// composition; fn must copy the slice if it retains it. Enumeration stops
// early if fn returns false.
//
// The number of compositions is C(total+parts-1, parts-1).
func Compositions(total, parts int, fn func([]int) bool) error {
	if total < 0 {
		return fmt.Errorf("combin: negative total %d", total)
	}
	if parts <= 0 {
		return fmt.Errorf("combin: non-positive parts %d", parts)
	}
	buf := make([]int, parts)
	var rec func(idx, remaining int) bool
	rec = func(idx, remaining int) bool {
		if idx == parts-1 {
			buf[idx] = remaining
			return fn(buf)
		}
		for v := 0; v <= remaining; v++ {
			buf[idx] = v
			if !rec(idx+1, remaining-v) {
				return false
			}
		}
		return true
	}
	rec(0, total)
	return nil
}

// Product enumerates the cartesian product of index spaces with the given
// sizes: every vector v with 0 <= v[i] < sizes[i]. fn receives a reused
// buffer; returning false stops enumeration early. An empty sizes slice
// yields a single empty vector.
func Product(sizes []int, fn func([]int) bool) error {
	for i, s := range sizes {
		if s <= 0 {
			return fmt.Errorf("combin: product dimension %d has non-positive size %d", i, s)
		}
	}
	buf := make([]int, len(sizes))
	for {
		if !fn(buf) {
			return nil
		}
		// Odometer increment.
		i := len(sizes) - 1
		for ; i >= 0; i-- {
			buf[i]++
			if buf[i] < sizes[i] {
				break
			}
			buf[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}
