package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// The exact-rational oracle: utilities, best responses and NE verdicts in
// big.Rat arithmetic, with no floating point between the rate parameters
// and the verdict. It is the reference the float DP, the screened NE
// oracle and Theorem 1's checker are pinned against.

// exactRate returns R(k) as an exact rational for the analytic rate
// families, whose parameters are exported and whose formulas need only
// field arithmetic (Geometric's power is repeated multiplication). Any
// other Func (tables, envelopes, the 802.11 models) reports ok=false.
func exactRate(f ratefn.Func) (rate func(k int) *big.Rat, ok bool) {
	switch r := f.(type) {
	case ratefn.Constant:
		return func(k int) *big.Rat {
			if k <= 0 {
				return new(big.Rat)
			}
			return floatRat(r.R0)
		}, true
	case ratefn.Harmonic:
		return func(k int) *big.Rat {
			if k <= 0 {
				return new(big.Rat)
			}
			denom := new(big.Rat).Add(
				big.NewRat(1, 1),
				new(big.Rat).Mul(floatRat(r.Alpha), big.NewRat(int64(k-1), 1)),
			)
			return new(big.Rat).Quo(floatRat(r.R0), denom)
		}, true
	case ratefn.Geometric:
		return func(k int) *big.Rat {
			if k <= 0 {
				return new(big.Rat)
			}
			beta := floatRat(r.Beta)
			out := floatRat(r.R0)
			for i := 1; i < k; i++ {
				out.Mul(out, beta)
			}
			return out
		}, true
	case ratefn.Linear:
		return func(k int) *big.Rat {
			if k <= 0 {
				return new(big.Rat)
			}
			v := new(big.Rat).Sub(floatRat(r.R0),
				new(big.Rat).Mul(floatRat(r.Slope), big.NewRat(int64(k-1), 1)))
			if v.Sign() < 0 {
				return new(big.Rat)
			}
			return v
		}, true
	}
	return nil, false
}

// floatRat converts a float64 to an exact big.Rat. Rate parameters are
// finite by construction; a non-finite value maps to zero.
func floatRat(f float64) *big.Rat {
	r := new(big.Rat)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return r
	}
	return r.SetFloat64(f)
}

// UtilityRat computes U_i(S) exactly, if the game's rate function supports
// exact rational evaluation. The second return is false otherwise.
func (g *Game) UtilityRat(a *Alloc, i int) (*big.Rat, bool) {
	rate, ok := exactRate(g.rate)
	if !ok {
		return nil, false
	}
	u := new(big.Rat)
	for c := 0; c < a.Channels(); c++ {
		ki := a.Radios(i, c)
		if ki == 0 {
			continue
		}
		kc := a.Load(c)
		term := new(big.Rat).Mul(big.NewRat(int64(ki), int64(kc)), rate(kc))
		u.Add(u, term)
	}
	return u, true
}

// BestResponseRat is the exact-arithmetic analogue of BestResponse. It
// returns an optimal row and its utility as a big.Rat, or ok=false if the
// rate function does not support exact evaluation.
func (g *Game) BestResponseRat(a *Alloc, i int) (row []int, util *big.Rat, ok bool, err error) {
	rate, isExact := exactRate(g.rate)
	if !isExact {
		return nil, nil, false, nil
	}
	if err := g.CheckAlloc(a); err != nil {
		return nil, nil, false, err
	}
	if i < 0 || i >= g.Users() {
		return nil, nil, false, fmt.Errorf("core: user %d out of range [0, %d)", i, g.Users())
	}
	k := g.budgets[i]
	C := g.channels

	v := make([][]*big.Rat, C)
	for c := 0; c < C; c++ {
		ext := a.Load(c) - a.Radios(i, c)
		v[c] = make([]*big.Rat, k+1)
		v[c][0] = new(big.Rat)
		for x := 1; x <= k; x++ {
			total := ext + x
			v[c][x] = new(big.Rat).Mul(big.NewRat(int64(x), int64(total)), rate(total))
		}
	}

	f := make([][]*big.Rat, C+1)
	choice := make([][]int, C)
	f[C] = make([]*big.Rat, k+1)
	for b := range f[C] {
		f[C][b] = new(big.Rat)
	}
	for c := C - 1; c >= 0; c-- {
		f[c] = make([]*big.Rat, k+1)
		choice[c] = make([]int, k+1)
		for b := 0; b <= k; b++ {
			var best *big.Rat
			bestX := 0
			for x := 0; x <= b; x++ {
				val := new(big.Rat).Add(v[c][x], f[c+1][b-x])
				if best == nil || val.Cmp(best) > 0 {
					best, bestX = val, x
				}
			}
			f[c][b] = best
			choice[c][b] = bestX
		}
	}

	row = make([]int, C)
	b := k
	for c := 0; c < C; c++ {
		row[c] = choice[c][b]
		b -= row[c]
	}
	return row, f[0][k], true, nil
}

// IsNashEquilibriumRat decides NE membership in exact rational arithmetic.
// ok=false means the rate function cannot be evaluated exactly; use the
// floating-point oracle instead.
func (g *Game) IsNashEquilibriumRat(a *Alloc) (isNE, ok bool, err error) {
	for i := 0; i < g.Users(); i++ {
		current, exact := g.UtilityRat(a, i)
		if !exact {
			return false, false, nil
		}
		_, best, exact, err := g.BestResponseRat(a, i)
		if err != nil {
			return false, false, err
		}
		if !exact {
			return false, false, nil
		}
		if best.Cmp(current) > 0 {
			return false, true, nil
		}
	}
	return true, true, nil
}

// TestExactRateMatchesFloat pins exactRate against each family's float
// Rate: R(0) is exactly zero, integral TDMA rates are exact, the decaying
// families agree with Rate to 1e-9, and Linear's clamp at zero is exact.
func TestExactRateMatchesFloat(t *testing.T) {
	tdma, _ := exactRate(ratefn.NewTDMA(11))
	if got := tdma(0); got.Sign() != 0 {
		t.Errorf("tdma R(0) = %v, want 0", got)
	}
	if got, want := tdma(5), big.NewRat(11, 1); got.Cmp(want) != 0 {
		t.Errorf("tdma R(5) = %v, want %v", got, want)
	}
	cases := []struct {
		f    ratefn.Func
		maxK int
	}{
		{ratefn.Harmonic{R0: 10, Alpha: 0.5}, 12},
		{ratefn.Geometric{R0: 8, Beta: 0.25}, 10},
		{ratefn.Linear{R0: 5, Slope: 1.25}, 10},
	}
	for _, tc := range cases {
		rate, ok := exactRate(tc.f)
		if !ok {
			t.Fatalf("%s: no exact form", tc.f.Name())
		}
		for k := 0; k <= tc.maxK; k++ {
			exact, _ := rate(k).Float64()
			if math.Abs(exact-tc.f.Rate(k)) > 1e-9 {
				t.Errorf("%s k=%d: exact %v, Rate %v", tc.f.Name(), k, exact, tc.f.Rate(k))
			}
		}
	}
	linear, _ := exactRate(ratefn.Linear{R0: 5, Slope: 1.25})
	if linear(100).Sign() != 0 {
		t.Error("exact linear rate should clamp at zero")
	}
}
