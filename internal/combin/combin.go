// Package combin provides the combinatorial enumeration primitives used by
// the exhaustive game-theory oracles: integer compositions (strategy spaces
// of a multi-radio user), bounded compositions, and cartesian products over
// per-player strategy sets.
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

// BoundedCompositions enumerates all length-parts vectors of non-negative
// integers summing to total with every entry at most bound. fn receives a
// reused buffer; returning false stops enumeration early.
func BoundedCompositions(total, parts, bound int, fn func([]int) bool) error {
	if total < 0 {
		return fmt.Errorf("combin: negative total %d", total)
	}
	if parts <= 0 {
		return fmt.Errorf("combin: non-positive parts %d", parts)
	}
	if bound < 0 {
		return fmt.Errorf("combin: negative bound %d", bound)
	}
	if total > parts*bound {
		return nil // no valid compositions; not an error
	}
	buf := make([]int, parts)
	var rec func(idx, remaining int) bool
	rec = func(idx, remaining int) bool {
		if idx == parts-1 {
			if remaining > bound {
				return true
			}
			buf[idx] = remaining
			return fn(buf)
		}
		maxV := remaining
		if maxV > bound {
			maxV = bound
		}
		// Prune: the remaining slots must be able to absorb what is left.
		for v := 0; v <= maxV; v++ {
			if remaining-v > (parts-idx-1)*bound {
				continue
			}
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

// CountCompositions returns C(total+parts-1, parts-1), the number of
// compositions of total into parts non-negative integers. It returns an
// error on overflow of int64 arithmetic or invalid arguments.
func CountCompositions(total, parts int) (int64, error) {
	if total < 0 || parts <= 0 {
		return 0, fmt.Errorf("combin: invalid compositions(%d, %d)", total, parts)
	}
	return Binomial(total+parts-1, parts-1)
}

// Binomial returns C(n, k) using 64-bit integer arithmetic, erroring on
// overflow rather than wrapping.
func Binomial(n, k int) (int64, error) {
	if n < 0 || k < 0 || k > n {
		return 0, fmt.Errorf("combin: invalid binomial(%d, %d)", n, k)
	}
	if k > n-k {
		k = n - k
	}
	result := int64(1)
	for i := 1; i <= k; i++ {
		num := int64(n - k + i)
		// result * num must not overflow.
		if result > (1<<62)/num {
			return 0, fmt.Errorf("combin: binomial(%d, %d) overflows int64", n, k)
		}
		result = result * num / int64(i)
	}
	return result, nil
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

// CollectCompositions materialises Compositions(total, parts) as a slice of
// freshly allocated vectors. Intended for small strategy spaces in tests and
// exhaustive oracles; use Compositions directly when streaming suffices.
func CollectCompositions(total, parts int) ([][]int, error) {
	n, err := CountCompositions(total, parts)
	if err != nil {
		return nil, err
	}
	out := make([][]int, 0, n)
	err = Compositions(total, parts, func(v []int) bool {
		out = append(out, append([]int(nil), v...))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
