package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 || r.StdErr() != 0 {
		t.Fatalf("zero-value Running should report zeros, got %+v", r.Summary())
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.N() != 1 {
		t.Fatalf("N = %d, want 1", r.N())
	}
	if r.Mean() != 42 {
		t.Fatalf("Mean = %v, want 42", r.Mean())
	}
	if r.Variance() != 0 {
		t.Fatalf("Variance of single sample = %v, want 0", r.Variance())
	}
	if r.Min() != 42 || r.Max() != 42 {
		t.Fatalf("Min/Max = %v/%v, want 42/42", r.Min(), r.Max())
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	r.AddAll(2, 4, 4, 4, 5, 5, 7, 9)
	if got, want := r.Mean(), 5.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	// Population variance is 4; sample variance is 4*8/7.
	if got, want := r.Variance(), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	f := func(xs []float64) bool {
		cleaned := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			cleaned = append(cleaned, x)
		}
		if len(cleaned) < 2 {
			return true
		}
		var r Running
		r.AddAll(cleaned...)
		mean, err := Mean(cleaned)
		if err != nil {
			return false
		}
		v, err := Variance(cleaned)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Abs(mean))
		return almostEqual(r.Mean(), mean, 1e-6*scale) && almostEqual(r.Variance(), v, 1e-4*math.Max(1, v))
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Fatal("Mean(nil) should error")
	}
	if _, err := Variance([]float64{1}); err == nil {
		t.Fatal("Variance of one sample should error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tc := range tests {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tc.q, err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q < 0 should error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q > 1 should error")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("NaN q should error")
	}
}

func TestMedianSingleton(t *testing.T) {
	got, err := Median([]float64{7})
	if err != nil || got != 7 {
		t.Fatalf("Median([7]) = %v, %v; want 7, nil", got, err)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"single-winner", []float64{0, 0, 0, 8}, 0.25},
		{"two-of-four", []float64{4, 4, 0, 0}, 0.5},
		{"all-zero", []float64{0, 0}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := JainIndex(tc.xs)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("JainIndex(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		})
	}
}

func TestJainIndexRange(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Clamp magnitude so Σx² cannot overflow to +Inf.
			xs = append(xs, math.Abs(math.Mod(x, 1e6)))
		}
		if len(xs) == 0 {
			return true
		}
		j, err := JainIndex(xs)
		if err != nil {
			return false
		}
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndexRejectsNegative(t *testing.T) {
	if _, err := JainIndex([]float64{1, -1}); err == nil {
		t.Fatal("negative value should error")
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.84134474, 1.0},
	}
	for _, tc := range tests {
		got := normalQuantile(tc.p)
		if !almostEqual(got, tc.want, 1e-4) {
			t.Errorf("normalQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestConfidenceInterval(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 8, 12, 10}
	iv, err := ConfidenceInterval(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo >= iv.Mean || iv.Hi <= iv.Mean {
		t.Fatalf("interval %v does not bracket mean", iv)
	}
	if !almostEqual(iv.Mean-iv.Lo, iv.Hi-iv.Mean, 1e-12) {
		t.Fatalf("interval %v not symmetric", iv)
	}
	wide, err := ConfidenceInterval(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Hi-wide.Lo <= iv.Hi-iv.Lo {
		t.Fatalf("99%% interval should be wider than 95%%: %v vs %v", wide, iv)
	}
}

func TestConfidenceIntervalErrors(t *testing.T) {
	if _, err := ConfidenceInterval(nil, 0.95); err == nil {
		t.Error("empty data should error")
	}
	if _, err := ConfidenceInterval([]float64{1}, 0); err == nil {
		t.Error("level 0 should error")
	}
	if _, err := ConfidenceInterval([]float64{1}, 1); err == nil {
		t.Error("level 1 should error")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2", h.Over)
	}
	wantCounts := []int{2, 1, 1, 0, 1}
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], want)
		}
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
	if got := h.BinCenter(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
}

func TestHistogramEdgeRounding(t *testing.T) {
	h, err := NewHistogram(0, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 0.3 - epsilon values must land in the last bin, not panic.
	h.Add(math.Nextafter(0.3, 0))
	if h.Counts[2] != 1 {
		t.Fatalf("edge value landed in %v", h.Counts)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(1, 1, 3); err == nil {
		t.Error("empty range should error")
	}
	if _, err := NewHistogram(2, 1, 3); err == nil {
		t.Error("inverted range should error")
	}
}

func TestSummaryString(t *testing.T) {
	var r Running
	r.AddAll(1, 2, 3)
	s := r.Summary().String()
	if s == "" {
		t.Fatal("empty summary string")
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Mean: 1, Lo: 0.5, Hi: 1.5, Level: 0.95}
	if iv.String() == "" {
		t.Fatal("empty interval string")
	}
}
