package combin

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCompositionsSmall(t *testing.T) {
	var got [][]int
	err := Compositions(2, 2, func(v []int) bool {
		got = append(got, append([]int(nil), v...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2}, {1, 1}, {2, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compositions(2,2) = %v, want %v", got, want)
	}
}

func TestCompositionsZeroTotal(t *testing.T) {
	var got [][]int
	if err := Compositions(0, 3, func(v []int) bool {
		got = append(got, append([]int(nil), v...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 0, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compositions(0,3) = %v, want %v", got, want)
	}
}

func TestCompositionsCountMatchesFormula(t *testing.T) {
	for total := 0; total <= 6; total++ {
		for parts := 1; parts <= 5; parts++ {
			count := 0
			if err := Compositions(total, parts, func(v []int) bool {
				sum := 0
				for _, x := range v {
					if x < 0 {
						t.Fatalf("negative entry in %v", v)
					}
					sum += x
				}
				if sum != total {
					t.Fatalf("composition %v sums to %d, want %d", v, sum, total)
				}
				count++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want, err := CountCompositions(total, parts)
			if err != nil {
				t.Fatal(err)
			}
			if int64(count) != want {
				t.Errorf("Compositions(%d,%d) yielded %d, formula says %d", total, parts, count, want)
			}
		}
	}
}

func TestCompositionsEarlyStop(t *testing.T) {
	count := 0
	if err := Compositions(5, 3, func(v []int) bool {
		count++
		return count < 4
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("early stop visited %d, want 4", count)
	}
}

func TestCompositionsErrors(t *testing.T) {
	if err := Compositions(-1, 2, func([]int) bool { return true }); err == nil {
		t.Error("negative total should error")
	}
	if err := Compositions(1, 0, func([]int) bool { return true }); err == nil {
		t.Error("zero parts should error")
	}
}

func TestBoundedCompositions(t *testing.T) {
	var got [][]int
	if err := BoundedCompositions(3, 3, 2, func(v []int) bool {
		got = append(got, append([]int(nil), v...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// All vectors of length 3, entries <= 2, summing to 3.
	want := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 1, 1}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BoundedCompositions(3,3,2) = %v, want %v", got, want)
	}
}

func TestBoundedCompositionsInfeasible(t *testing.T) {
	called := false
	if err := BoundedCompositions(10, 2, 3, func(v []int) bool {
		called = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("infeasible bound should yield nothing")
	}
}

func TestBoundedCompositionsMatchesFiltered(t *testing.T) {
	for total := 0; total <= 5; total++ {
		for parts := 1; parts <= 4; parts++ {
			for bound := 0; bound <= 4; bound++ {
				var bounded [][]int
				if err := BoundedCompositions(total, parts, bound, func(v []int) bool {
					bounded = append(bounded, append([]int(nil), v...))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				var filtered [][]int
				if err := Compositions(total, parts, func(v []int) bool {
					for _, x := range v {
						if x > bound {
							return true
						}
					}
					filtered = append(filtered, append([]int(nil), v...))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(bounded) == 0 && len(filtered) == 0 {
					continue
				}
				if !reflect.DeepEqual(bounded, filtered) {
					t.Fatalf("total=%d parts=%d bound=%d: bounded %v != filtered %v",
						total, parts, bound, bounded, filtered)
				}
			}
		}
	}
}

func TestBoundedCompositionsErrors(t *testing.T) {
	fn := func([]int) bool { return true }
	if err := BoundedCompositions(-1, 1, 1, fn); err == nil {
		t.Error("negative total should error")
	}
	if err := BoundedCompositions(1, 0, 1, fn); err == nil {
		t.Error("zero parts should error")
	}
	if err := BoundedCompositions(1, 1, -1, fn); err == nil {
		t.Error("negative bound should error")
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {52, 5, 2598960},
	}
	for _, tc := range tests {
		got, err := Binomial(tc.n, tc.k)
		if err != nil {
			t.Fatalf("Binomial(%d,%d): %v", tc.n, tc.k, err)
		}
		if got != tc.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n, k uint8) bool {
		nn := int(n % 40)
		kk := int(k) % (nn + 1)
		a, errA := Binomial(nn, kk)
		b, errB := Binomial(nn, nn-kk)
		return errA == nil && errB == nil && a == b
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			c, _ := Binomial(n, k)
			a, _ := Binomial(n-1, k-1)
			b, _ := Binomial(n-1, k)
			if c != a+b {
				t.Fatalf("Pascal identity fails at C(%d,%d): %d != %d + %d", n, k, c, a, b)
			}
		}
	}
}

func TestBinomialErrors(t *testing.T) {
	if _, err := Binomial(-1, 0); err == nil {
		t.Error("negative n should error")
	}
	if _, err := Binomial(3, 5); err == nil {
		t.Error("k > n should error")
	}
	if _, err := Binomial(3, -1); err == nil {
		t.Error("negative k should error")
	}
	if _, err := Binomial(200, 100); err == nil {
		t.Error("huge binomial should overflow")
	}
}

func TestProduct(t *testing.T) {
	var got [][]int
	if err := Product([]int{2, 3}, func(v []int) bool {
		got = append(got, append([]int(nil), v...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Product = %v, want %v", got, want)
	}
}

func TestProductEmptyDims(t *testing.T) {
	count := 0
	if err := Product(nil, func(v []int) bool {
		if len(v) != 0 {
			t.Fatalf("expected empty vector, got %v", v)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("empty product should yield exactly one vector, got %d", count)
	}
}

func TestProductEarlyStop(t *testing.T) {
	count := 0
	if err := Product([]int{10, 10}, func(v []int) bool {
		count++
		return count < 7
	}); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("early stop visited %d, want 7", count)
	}
}

func TestProductErrors(t *testing.T) {
	if err := Product([]int{2, 0}, func([]int) bool { return true }); err == nil {
		t.Error("zero-size dimension should error")
	}
}

func TestCollectCompositions(t *testing.T) {
	got, err := CollectCompositions(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("CollectCompositions(2,3) has %d entries, want 6", len(got))
	}
	// Returned slices must be independent allocations.
	got[0][0] = 99
	if got[1][0] == 99 {
		t.Fatal("collected compositions share a buffer")
	}
}

func TestCollectCompositionsError(t *testing.T) {
	if _, err := CollectCompositions(-1, 1); err == nil {
		t.Fatal("invalid args should error")
	}
}
