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

func TestMultinomial(t *testing.T) {
	cases := []struct {
		counts []int
		want   int64
	}{
		{nil, 1},
		{[]int{0}, 1},
		{[]int{5}, 1},
		{[]int{1, 1}, 2},
		{[]int{2, 1}, 3},
		{[]int{1, 1, 1, 1}, 24},    // 4 distinct rows: full 4! orbit
		{[]int{2, 2}, 6},           // 4!/(2!·2!)
		{[]int{3, 1}, 4},           // 4!/3!
		{[]int{4}, 1},              // all four users on the same row
		{[]int{2, 3, 1}, 60},       // 6!/(2!·3!·1!)
		{[]int{0, 2, 0, 1}, 3},     // zero multiplicities are inert
		{[]int{10, 10, 10}, 5550996791340}, // 30!/(10!)^3
	}
	for _, tc := range cases {
		got, err := Multinomial(tc.counts)
		if err != nil {
			t.Fatalf("Multinomial(%v): %v", tc.counts, err)
		}
		if got != tc.want {
			t.Fatalf("Multinomial(%v) = %d, want %d", tc.counts, got, tc.want)
		}
	}
}

func TestMultinomialRejectsNegative(t *testing.T) {
	if _, err := Multinomial([]int{2, -1}); err == nil {
		t.Fatal("negative multiplicity should error")
	}
}

// TestMultinomialOverflowBoundary pins the int64 boundary behaviour: the
// largest balanced two-part multinomials that fit must succeed exactly,
// and the first that does not must error rather than wrap negative (the
// guard divides before multiplying, the checkProfileCap bug shape).
func TestMultinomialOverflowBoundary(t *testing.T) {
	// C(64,32) ≈ 1.8e18 fits under the 2^62 guard; C(66,33) ≈ 7.2e18 does
	// not. Find the largest n that succeeds and check failure past it.
	lastOK := -1
	for n := 1; n <= 40; n++ {
		v, err := Multinomial([]int{n, n})
		if err != nil {
			break
		}
		if v <= 0 {
			t.Fatalf("Multinomial(%d,%d) = %d wrapped non-positive instead of erroring", n, n, v)
		}
		lastOK = n
	}
	if lastOK < 30 || lastOK > 35 {
		t.Fatalf("largest fitting C(2n,n) at n = %d, want the int64 boundary near 31-33", lastOK)
	}
	if _, err := Multinomial([]int{lastOK + 1, lastOK + 1}); err == nil {
		t.Fatalf("Multinomial(%d,%d) beyond the boundary should error", lastOK+1, lastOK+1)
	}
	// A huge total must error on the prefix-sum guard, not wrap.
	if _, err := Multinomial([]int{1 << 62, 1 << 62}); err == nil {
		t.Fatal("prefix-sum overflow should error")
	}
	// Many unit multiplicities: 21! > 2^62 must error, 20! must not.
	fits := make([]int, 20)
	for i := range fits {
		fits[i] = 1
	}
	if v, err := Multinomial(fits); err != nil || v != 2432902008176640000 {
		t.Fatalf("20! = %d, %v; want 2432902008176640000", v, err)
	}
	if _, err := Multinomial(append(fits, 1)); err == nil {
		t.Fatal("21! overflows int64 and should error")
	}
}

func TestMultisetCount(t *testing.T) {
	cases := []struct {
		options, size int
		want          int64
	}{
		{1, 0, 1},
		{1, 5, 1},
		{3, 2, 6},
		{15, 4, 3060}, // the 4x4x2 benchmark game's canonical profile count
	}
	for _, tc := range cases {
		got, err := MultisetCount(tc.options, tc.size)
		if err != nil {
			t.Fatalf("MultisetCount(%d, %d): %v", tc.options, tc.size, err)
		}
		if got != tc.want {
			t.Fatalf("MultisetCount(%d, %d) = %d, want %d", tc.options, tc.size, got, tc.want)
		}
	}
	if _, err := MultisetCount(0, 3); err == nil {
		t.Fatal("zero options should error")
	}
	if _, err := MultisetCount(3, -1); err == nil {
		t.Fatal("negative size should error")
	}
	if _, err := MultisetCount(1 << 40, 1<<40); err == nil {
		t.Fatal("overflowing multiset count should error")
	}
}
