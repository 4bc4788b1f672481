// Package stats provides the descriptive statistics used by the experiment
// harnesses: streaming moments, quantiles, confidence intervals, fairness
// indices and fixed-width histograms, plus the Mann–Whitney U test that
// cmd/benchdiff runs on repeated benchmark samples.
//
// The package is intentionally small and dependency-free; it exists so that
// benchmark and simulation code never hand-rolls numerically fragile
// accumulators.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by summaries that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// Running accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddAll records every observation in xs.
func (r *Running) AddAll(xs ...float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// N reports the number of observations recorded so far.
func (r *Running) N() int { return r.n }

// Mean reports the running mean. It is 0 for an empty accumulator.
func (r *Running) Mean() float64 { return r.mean }

// Min reports the smallest observation, or 0 when empty.
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation, or 0 when empty.
func (r *Running) Max() float64 { return r.max }

// Variance reports the unbiased sample variance (n-1 denominator).
// It is 0 when fewer than two observations were recorded.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr reports the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Summary is a point-in-time snapshot of a Running accumulator.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summary snapshots the accumulator.
func (r *Running) Summary() Summary {
	return Summary{N: r.n, Mean: r.mean, StdDev: r.StdDev(), Min: r.min, Max: r.max}
}

// String renders the summary as "mean ± sd [min, max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.3g [%.6g, %.6g] (n=%d)", s.Mean, s.StdDev, s.Min, s.Max, s.N)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: variance needs >= 2 samples, got %d: %w", len(xs), ErrNoData)
	}
	var r Running
	r.AddAll(xs...)
	return r.Variance(), nil
}

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

// normalQuantile returns the standard normal quantile for the given upper
// confidence level using the Acklam rational approximation (|error| < 1.2e-9
// over the open interval).
func normalQuantile(p float64) float64 {
	// Coefficients for the Acklam inverse-normal approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-pLow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	Mean  float64
	Lo    float64
	Hi    float64
	Level float64
}

// String renders the interval as "mean [lo, hi] @ level".
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] @%.0f%%", iv.Mean, iv.Lo, iv.Hi, iv.Level*100)
}

// ConfidenceInterval returns a normal-approximation confidence interval for
// the mean of xs at the given level (e.g. 0.95).
func ConfidenceInterval(xs []float64, level float64) (Interval, error) {
	if len(xs) == 0 {
		return Interval{}, ErrNoData
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v out of (0,1)", level)
	}
	var r Running
	r.AddAll(xs...)
	z := normalQuantile(1 - (1-level)/2)
	half := z * r.StdErr()
	return Interval{Mean: r.Mean(), Lo: r.Mean() - half, Hi: r.Mean() + half, Level: level}, nil
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi   float64
	Counts   []int
	Under    int // observations below Lo
	Over     int // observations at or above Hi
	binWidth float64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram bounds [%v, %v) are empty", lo, hi)
	}
	return &Histogram{
		Lo:       lo,
		Hi:       hi,
		Counts:   make([]int, bins),
		binWidth: (hi - lo) / float64(bins),
	}, nil
}

// Add records an observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / h.binWidth)
		if idx >= len(h.Counts) { // guard against float rounding at the edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Total reports the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int {
	total := h.Under + h.Over
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.binWidth
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
