package combin

import (
	"reflect"
	"testing"
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
			// C(total+parts-1, parts-1), by the multiplicative formula.
			n, k := total+parts-1, parts-1
			want := 1
			for i := 1; i <= k; i++ {
				want = want * (n - k + i) / i
			}
			if count != want {
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
