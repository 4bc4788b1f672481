package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
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
