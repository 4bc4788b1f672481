package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for v := lo; v <= hi; v++ {
		xs = append(xs, float64(v))
	}
	return xs
}

func TestMannWhitneyUExactSeparated(t *testing.T) {
	for _, tc := range []struct {
		x, y  []float64
		wantU float64
		wantP float64
	}{
		{seq(1, 5), seq(6, 10), 0, 2.0 / 252},
		{seq(6, 10), seq(1, 5), 25, 2.0 / 252},
		{seq(1, 10), seq(11, 20), 0, 2.0 / 184756},
	} {
		u, p, err := MannWhitneyU(tc.x, tc.y)
		if err != nil {
			t.Fatal(err)
		}
		if u != tc.wantU || !almostEqual(p, tc.wantP, 1e-15) {
			t.Errorf("MannWhitneyU(%v, %v) = U %v p %v, want U %v p %v", tc.x, tc.y, u, p, tc.wantU, tc.wantP)
		}
	}
}

func TestMannWhitneyUTiedNormal(t *testing.T) {
	u, p, err := MannWhitneyU([]float64{1, 2, 2, 3, 4}, []float64{3, 4, 5, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if u != 2 || !almostEqual(p, 0.03445, 5e-6) {
		t.Fatalf("U %v p %v, want U 2 p ≈ 0.03445", u, p)
	}
}

func TestMannWhitneyUEmpty(t *testing.T) {
	for _, tc := range [][2][]float64{{nil, {1}}, {{1}, nil}, {nil, nil}} {
		if _, _, err := MannWhitneyU(tc[0], tc[1]); !errors.Is(err, ErrNoData) {
			t.Errorf("MannWhitneyU(%v, %v) error %v, want ErrNoData", tc[0], tc[1], err)
		}
	}
}

// bruteU enumerates every way to give n1 of the ranks 1..n1+n2 to x and
// returns U of each assignment, indexed by the bitmask of x's ranks.
func bruteU(n1, n2 int) map[int]int {
	out := map[int]int{}
	for mask := 0; mask < 1<<(n1+n2); mask++ {
		size, rankSum := 0, 0
		for r := 0; r < n1+n2; r++ {
			if mask&(1<<r) != 0 {
				size++
				rankSum += r + 1
			}
		}
		if size == n1 {
			out[mask] = rankSum - n1*(n1+1)/2
		}
	}
	return out
}

// TestMannWhitneyUExactMatchesBruteForce pins the exact path against a
// full rank enumeration for every sample size up to 6 and every
// tie-free arrangement of the data.
func TestMannWhitneyUExactMatchesBruteForce(t *testing.T) {
	for n1 := 1; n1 <= 6; n1++ {
		for n2 := 1; n2 <= 6; n2++ {
			us := bruteU(n1, n2)
			for mask, want := range us {
				var lo, hi int
				for _, v := range us {
					if v <= want {
						lo++
					}
					if v >= want {
						hi++
					}
				}
				wantP := math.Min(1, 2*float64(min(lo, hi))/float64(len(us)))
				var x, y []float64
				for r := 0; r < n1+n2; r++ {
					if mask&(1<<r) != 0 {
						x = append(x, float64(r+1))
					} else {
						y = append(y, float64(r+1))
					}
				}
				u, p, err := MannWhitneyU(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if u != float64(want) || !almostEqual(p, wantP, 1e-12) {
					t.Fatalf("n1=%d n2=%d x=%v: U %v p %v, want U %d p %v", n1, n2, x, u, p, want, wantP)
				}
			}
		}
	}
}

// TestMannWhitneyUProperties checks, on random samples with and without
// ties, that U(x,y) + U(y,x) = n1·n2, that p lies in [0,1] and is
// symmetric in x and y, and that a common shift changes neither U nor p.
func TestMannWhitneyUProperties(t *testing.T) {
	prop := func(xs, ys []int8, shift int16, coarse bool) bool {
		sample := func(vs []int8, off float64) []float64 {
			if len(vs) > 12 {
				vs = vs[:12]
			}
			out := make([]float64, len(vs))
			for i, v := range vs {
				if coarse {
					v %= 4 // dense ties exercise the normal path
				}
				out[i] = float64(v) + off
			}
			return out
		}
		x, y := sample(xs, 0), sample(ys, 0)
		if len(x) == 0 || len(y) == 0 {
			return true
		}
		uxy, pxy, err1 := MannWhitneyU(x, y)
		uyx, pyx, err2 := MannWhitneyU(y, x)
		us, ps, err3 := MannWhitneyU(sample(xs, float64(shift)), sample(ys, float64(shift)))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return uxy+uyx == float64(len(x)*len(y)) &&
			pxy >= 0 && pxy <= 1 &&
			almostEqual(pxy, pyx, 1e-12) &&
			us == uxy && ps == pxy
	}
	if err := quick.Check(prop, quickConfig(t, 500)); err != nil {
		t.Fatal(err)
	}
}
