// Package stats provides the statistics the experiments and tools use:
// quantiles and medians, Jain's fairness index, and the Mann–Whitney U
// test that cmd/benchdiff runs on repeated benchmark samples.
//
// The package is intentionally small and dependency-free.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by summaries that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy/R default).
// xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// JainIndex computes Jain's fairness index
//
//	J = (Σx)² / (n · Σx²)
//
// over the non-negative allocations xs. J is 1 for perfectly equal shares and
// 1/n when a single element receives everything.
func JainIndex(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("stats: Jain index requires non-negative values, got %v", x)
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		// All-zero allocation: treat as perfectly fair by convention.
		return 1, nil
	}
	n := float64(len(xs))
	return sum * sum / (n * sumSq), nil
}

// exactUMax bounds the sample sizes MannWhitneyU enumerates exactly: the
// count table costs n1·n2·(n1·n2+1) additions, a few million at 50 a side.
const exactUMax = 50

// MannWhitneyU runs the two-sided Mann–Whitney U (Wilcoxon rank-sum) test
// of x against y. U counts the pairs (x[i], y[j]) with x[i] > y[j], ties
// scoring one half, so U(x,y) + U(y,x) = len(x)·len(y). Without ties and
// with both samples at most exactUMax long, p comes from the exact null
// distribution of U; otherwise from the tie-corrected normal
// approximation with a continuity correction. p is capped at 1. Neither
// input is modified; both must be non-empty and free of NaN.
func MannWhitneyU(x, y []float64) (u, p float64, err error) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return 0, 0, ErrNoData
	}
	type obs struct {
		v   float64
		inX bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, true})
	}
	for _, v := range y {
		all = append(all, obs{v, false})
	}
	for _, o := range all {
		if math.IsNaN(o.v) {
			return 0, 0, fmt.Errorf("stats: Mann–Whitney U sample contains NaN")
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks: a run of t tied values shares the mean of its ranks and
	// adds t³-t to the tie correction.
	var rankSumX, tieSum float64
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of ranks i+1 .. j
		for k := i; k < j; k++ {
			if all[k].inX {
				rankSumX += rank
			}
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	u = rankSumX - float64(n1*(n1+1))/2

	if tieSum == 0 && n1 <= exactUMax && n2 <= exactUMax {
		// The null distribution of U is symmetric about n1·n2/2, so the
		// two-sided p doubles the lower tail at the nearer end.
		lo := int(math.Min(u, float64(n1*n2)-u))
		counts := uCounts(n1, n2)
		var tail, total float64
		for k, c := range counts {
			if k <= lo {
				tail += c
			}
			total += c
		}
		return u, math.Min(1, 2*tail/total), nil
	}

	nf1, nf2, n := float64(n1), float64(n2), float64(n1+n2)
	sigma := math.Sqrt(nf1 * nf2 / 12 * ((n + 1) - tieSum/(n*(n-1))))
	if sigma == 0 {
		return u, 1, nil // every observation tied: no evidence either way
	}
	z := (math.Abs(u-nf1*nf2/2) - 0.5) / sigma
	if z <= 0 {
		return u, 1, nil
	}
	return u, math.Min(1, math.Erfc(z/math.Sqrt2)), nil
}

// uCounts returns, for every u in [0, n1·n2], the number of orderings of
// n1 x-values and n2 y-values (no ties) whose U statistic is u. It runs
// the recurrence f(m, n, u) = f(m-1, n, u-n) + f(m, n-1, u) — the largest
// value is either an x, beating all n y-values, or a y — one m-layer at
// a time over n = 0..n2.
func uCounts(n1, n2 int) []float64 {
	width := n1*n2 + 1
	prev := make([][]float64, n2+1) // f(m-1, ·, ·)
	cur := make([][]float64, n2+1)
	for n := range prev {
		prev[n] = make([]float64, width)
		cur[n] = make([]float64, width)
		prev[n][0] = 1 // m = 0: the only ordering has U = 0
	}
	for m := 1; m <= n1; m++ {
		for n := 0; n <= n2; n++ {
			row := cur[n]
			for k := range row {
				row[k] = 0
				if k >= n {
					row[k] = prev[n][k-n]
				}
				if n > 0 {
					row[k] += cur[n-1][k]
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev[n2]
}
