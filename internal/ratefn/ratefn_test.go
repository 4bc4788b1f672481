package ratefn

import (
	"math"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c := NewTDMA(54)
	if got := c.Rate(0); got != 0 {
		t.Errorf("Rate(0) = %v, want 0", got)
	}
	if got := c.Rate(-3); got != 0 {
		t.Errorf("Rate(-3) = %v, want 0", got)
	}
	for k := 1; k <= 100; k *= 10 {
		if got := c.Rate(k); got != 54 {
			t.Errorf("Rate(%d) = %v, want 54", k, got)
		}
	}
	if err := Validate(c, 64); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConstantExact(t *testing.T) {
	c := NewTDMA(11)
	if got := c.RateRat(0); got.Sign() != 0 {
		t.Errorf("RateRat(0) = %v, want 0", got)
	}
	want := big.NewRat(11, 1)
	if got := c.RateRat(5); got.Cmp(want) != 0 {
		t.Errorf("RateRat(5) = %v, want %v", got, want)
	}
}

func TestHarmonic(t *testing.T) {
	h := Harmonic{R0: 10, Alpha: 1}
	tests := []struct {
		k    int
		want float64
	}{
		{0, 0}, {1, 10}, {2, 5}, {3, 10.0 / 3}, {10, 1},
	}
	for _, tc := range tests {
		if got := h.Rate(tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Rate(%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
	if err := Validate(h, 64); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestHarmonicZeroAlphaIsConstant(t *testing.T) {
	h := Harmonic{R0: 7, Alpha: 0}
	for k := 1; k < 20; k++ {
		if got := h.Rate(k); got != 7 {
			t.Fatalf("Rate(%d) = %v, want 7", k, got)
		}
	}
}

func TestHarmonicExactMatchesFloat(t *testing.T) {
	h := Harmonic{R0: 10, Alpha: 0.5}
	for k := 0; k <= 12; k++ {
		exact, _ := h.RateRat(k).Float64()
		if math.Abs(exact-h.Rate(k)) > 1e-9 {
			t.Errorf("k=%d: RateRat=%v Rate=%v", k, exact, h.Rate(k))
		}
	}
}

func TestGeometric(t *testing.T) {
	g := Geometric{R0: 8, Beta: 0.5}
	tests := []struct {
		k    int
		want float64
	}{
		{0, 0}, {1, 8}, {2, 4}, {3, 2}, {4, 1},
	}
	for _, tc := range tests {
		if got := g.Rate(tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Rate(%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
	if err := Validate(g, 64); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGeometricExactMatchesFloat(t *testing.T) {
	g := Geometric{R0: 8, Beta: 0.25}
	for k := 0; k <= 10; k++ {
		exact, _ := g.RateRat(k).Float64()
		if math.Abs(exact-g.Rate(k)) > 1e-9 {
			t.Errorf("k=%d: RateRat=%v Rate=%v", k, exact, g.Rate(k))
		}
	}
}

func TestLinear(t *testing.T) {
	l := Linear{R0: 10, Slope: 3}
	tests := []struct {
		k    int
		want float64
	}{
		{0, 0}, {1, 10}, {2, 7}, {3, 4}, {4, 1}, {5, 0}, {100, 0},
	}
	for _, tc := range tests {
		if got := l.Rate(tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Rate(%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
	if err := Validate(l, 64); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLinearExactMatchesFloat(t *testing.T) {
	l := Linear{R0: 5, Slope: 1.25}
	for k := 0; k <= 10; k++ {
		exact, _ := l.RateRat(k).Float64()
		if math.Abs(exact-l.Rate(k)) > 1e-9 {
			t.Errorf("k=%d: RateRat=%v Rate=%v", k, exact, l.Rate(k))
		}
	}
	// Clamp at zero must hold exactly.
	if l.RateRat(100).Sign() != 0 {
		t.Error("RateRat should clamp at zero")
	}
}

func TestLinearZeroSlopeIsConstant(t *testing.T) {
	l := Linear{R0: 3, Slope: 0}
	for k := 1; k < 20; k++ {
		if l.Rate(k) != 3 {
			t.Fatalf("Rate(%d) = %v, want 3", k, l.Rate(k))
		}
	}
}

func TestValidateRejectsIncreasing(t *testing.T) {
	bad := increasing{}
	if err := Validate(bad, 5); err == nil {
		t.Fatal("Validate should reject an increasing function")
	}
}

type increasing struct{}

func (increasing) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k)
}
func (increasing) Name() string { return "increasing" }

type nonZeroAtZero struct{}

func (nonZeroAtZero) Rate(k int) float64 { return 1 }
func (nonZeroAtZero) Name() string       { return "nonzero" }

func TestValidateRejectsNonZeroOrigin(t *testing.T) {
	if err := Validate(nonZeroAtZero{}, 5); err == nil {
		t.Fatal("Validate should reject R(0) != 0")
	}
}

func TestValidateArgErrors(t *testing.T) {
	if err := Validate(nil, 5); err == nil {
		t.Error("nil Func should error")
	}
	if err := Validate(NewTDMA(1), 0); err == nil {
		t.Error("maxK < 1 should error")
	}
}

func TestTable(t *testing.T) {
	tbl, err := NewTable("empirical", []float64{10, 9, 9, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rate(0); got != 0 {
		t.Errorf("Rate(0) = %v, want 0", got)
	}
	if got := tbl.Rate(2); got != 9 {
		t.Errorf("Rate(2) = %v, want 9", got)
	}
	// Beyond the table: saturated tail.
	if got := tbl.Rate(100); got != 7 {
		t.Errorf("Rate(100) = %v, want 7", got)
	}
	if tbl.Len() != 4 {
		t.Errorf("Len = %d, want 4", tbl.Len())
	}
	if err := Validate(tbl, 10); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTableCopiesInput(t *testing.T) {
	vals := []float64{5, 4}
	tbl, err := NewTable("t", vals)
	if err != nil {
		t.Fatal(err)
	}
	vals[0] = 100
	if got := tbl.Rate(1); got != 5 {
		t.Fatalf("table aliased caller slice: Rate(1) = %v", got)
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable("empty", nil); err == nil {
		t.Error("empty table should error")
	}
	if _, err := NewTable("neg", []float64{1, -1}); err == nil {
		t.Error("negative value should error")
	}
	if _, err := NewTable("inc", []float64{1, 2}); err == nil {
		t.Error("increasing table should error")
	}
	if _, err := NewTable("nan", []float64{math.NaN()}); err == nil {
		t.Error("NaN should error")
	}
}

// wiggle is deliberately non-monotone to exercise the envelope. It is
// clamped at zero so the enveloped function satisfies the full contract.
type wiggle struct{}

func (wiggle) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	var r float64
	if k%2 == 0 {
		r = 10 - float64(k)
	} else {
		r = 12 - float64(k)
	}
	return math.Max(0, r)
}
func (wiggle) Name() string { return "wiggle" }

func TestMonotoneEnvelope(t *testing.T) {
	env := NewMonotoneEnvelope(wiggle{})
	if err := Validate(env, 9); err != nil {
		t.Fatalf("envelope should be monotone: %v", err)
	}
	// wiggle: R(1)=11, R(2)=8, R(3)=9 -> envelope at 3 must be 8.
	if got := env.Rate(3); got != 8 {
		t.Errorf("Rate(3) = %v, want 8", got)
	}
	// Query out of order; memoisation must backfill correctly.
	// wiggle values: R(1)=11, R(2)=8, R(3)=9, R(4)=6, R(5)=7 -> min = 6.
	env2 := NewMonotoneEnvelope(wiggle{})
	if got := env2.Rate(5); got != 6 {
		t.Errorf("Rate(5) = %v, want 6", got)
	}
}

func TestMonotoneEnvelopeRunningMin(t *testing.T) {
	env := NewMonotoneEnvelope(wiggle{})
	minSoFar := math.Inf(1)
	for k := 1; k <= 12; k++ {
		raw := wiggle{}.Rate(k)
		if raw < minSoFar {
			minSoFar = raw
		}
		if got := env.Rate(k); got != minSoFar {
			t.Fatalf("Rate(%d) = %v, want running min %v", k, got, minSoFar)
		}
	}
}

func TestMonotoneEnvelopeConcurrent(t *testing.T) {
	env := NewMonotoneEnvelope(wiggle{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 50; k++ {
				_ = env.Rate(k)
			}
		}()
	}
	wg.Wait()
	if err := Validate(env, 50); err != nil {
		t.Fatal(err)
	}
}

type countingFunc struct {
	mu    sync.Mutex
	calls int
}

func (c *countingFunc) Rate(k int) float64 {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	if k <= 0 {
		return 0
	}
	return 1
}
func (c *countingFunc) Name() string { return "counting" }

func TestMemoCaches(t *testing.T) {
	inner := &countingFunc{}
	m := NewMemo(inner)
	for i := 0; i < 10; i++ {
		if got := m.Rate(3); got != 1 {
			t.Fatalf("Rate(3) = %v, want 1", got)
		}
	}
	if inner.calls != 1 {
		t.Fatalf("inner called %d times, want 1", inner.calls)
	}
	if got := m.Rate(0); got != 0 {
		t.Fatalf("Rate(0) = %v, want 0", got)
	}
	if inner.calls != 1 {
		t.Fatalf("Rate(0) must not consult inner; calls = %d", inner.calls)
	}
}

func TestMemoConcurrent(t *testing.T) {
	inner := &countingFunc{}
	m := NewMemo(inner)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 20; k++ {
				if got := m.Rate(k); got != 1 {
					t.Errorf("Rate(%d) = %v, want 1", k, got)
				}
			}
		}()
	}
	wg.Wait()
}

func TestNames(t *testing.T) {
	fns := []Func{
		NewTDMA(1),
		Harmonic{R0: 1, Alpha: 1},
		Geometric{R0: 1, Beta: 0.5},
		NewMonotoneEnvelope(NewTDMA(1)),
		NewMemo(NewTDMA(1)),
	}
	for _, f := range fns {
		if f.Name() == "" {
			t.Errorf("%T has empty name", f)
		}
	}
}

func TestHarmonicContractProperty(t *testing.T) {
	f := func(r0, alpha float64) bool {
		r0 = math.Abs(math.Mod(r0, 100))
		alpha = math.Abs(math.Mod(alpha, 10))
		if math.IsNaN(r0) || math.IsNaN(alpha) {
			return true
		}
		return Validate(Harmonic{R0: r0, Alpha: alpha}, 32) == nil
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricContractProperty(t *testing.T) {
	f := func(r0, beta float64) bool {
		r0 = math.Abs(math.Mod(r0, 100))
		beta = math.Abs(math.Mod(beta, 1))
		if math.IsNaN(r0) || math.IsNaN(beta) || beta == 0 {
			return true
		}
		return Validate(Geometric{R0: r0, Beta: beta}, 32) == nil
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestFreezeSnapshot(t *testing.T) {
	inner := &countingFunc{}
	frozen, err := Freeze(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	sampled := inner.calls
	if sampled != 16 {
		t.Fatalf("Freeze sampled %d values, want 16", sampled)
	}
	for k := 0; k <= 20; k++ {
		want := 0.0
		if k >= 1 {
			want = 1 // saturated tail beyond 16
		}
		if got := frozen.Rate(k); got != want {
			t.Fatalf("frozen Rate(%d) = %v, want %v", k, got, want)
		}
	}
	if inner.calls != sampled {
		t.Fatalf("frozen table consulted inner (%d calls after, %d at freeze)", inner.calls, sampled)
	}
	if frozen.Name() != inner.Name() {
		t.Fatalf("Freeze renamed %q to %q", inner.Name(), frozen.Name())
	}
}

func TestFreezeMatchesInnerExactly(t *testing.T) {
	inner := Harmonic{R0: 3, Alpha: 0.7}
	frozen, err := Freeze(inner, 32)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 32; k++ {
		if got, want := frozen.Rate(k), inner.Rate(k); got != want {
			t.Fatalf("frozen Rate(%d) = %v, inner = %v (must be bit-identical)", k, got, want)
		}
	}
}

func TestFreezeErrors(t *testing.T) {
	if _, err := Freeze(nil, 4); err == nil {
		t.Error("Freeze(nil) should error")
	}
	if _, err := Freeze(NewTDMA(1), 0); err == nil {
		t.Error("Freeze with maxK=0 should error")
	}
	// A non-monotone inner fails the Table contract check.
	if _, err := Freeze(wiggle{}, 8); err == nil {
		t.Error("Freeze of a non-monotone Func should surface the contract violation")
	}
	if _, err := Freeze(NewMonotoneEnvelope(wiggle{}), 8); err != nil {
		t.Errorf("Freeze of the enveloped form should succeed, got %v", err)
	}
}

// BenchmarkRateLookup pits the RWMutex Memo against the lock-free frozen
// Table on the access pattern of the game hot loops (sequential loads),
// serial and under parallel workers — the regime the Memo's read lock
// contends in.
func BenchmarkRateLookup(b *testing.B) {
	inner := Harmonic{R0: 54, Alpha: 0.4}
	const maxK = 64
	memo := NewMemo(inner)
	frozen, err := Freeze(inner, maxK)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		f    Func
	}{
		{"memo", memo},
		{"frozen", frozen},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.f.Rate(1+i%maxK) <= 0 {
					b.Fatal("degenerate rate")
				}
			}
		})
		b.Run(bc.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					k++
					if bc.f.Rate(1+k%maxK) <= 0 {
						b.Fatal("degenerate rate")
					}
				}
			})
		})
	}
}
