package chanalloc_test

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc"
)

// TestParseRateRejectsNonFinite pins that no NaN or infinite parameter
// gets past the rate grammar: each would make R(k) NaN or +Inf and every
// welfare figure unencodable.
func TestParseRateRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{
		"tdma:NaN",
		"tdma:Inf",
		"harmonic:1:NaN",
		"harmonic:Inf:1",
		"geometric:NaN:0.5",
	} {
		if f, err := chanalloc.ParseRate(spec); err == nil {
			t.Errorf("ParseRate(%q) accepted, R(1) = %v", spec, f.Rate(1))
		}
	}
}

// FuzzParseRate feeds arbitrary specs to the rate grammar. Nothing may
// panic, and every accepted spec yields a rate that is finite,
// non-negative and non-increasing on 1..64 with R(1) > 0. (Extreme but
// finite parameters may underflow a harmonic or geometric tail to 0, which
// the rate contract allows.)
func FuzzParseRate(f *testing.F) {
	for _, spec := range []string{
		"tdma:54", "harmonic:54:0.3", "geometric:54:0.9", "csma-practical",
		"csma-optimal:1mbps", "tdma:NaN", "harmonic:Inf:1", "geometric:1e-300:1e-300",
		"harmonic:1.7e308:0", "tdma:-1", "bogus",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := chanalloc.ParseRate(spec)
		if err != nil {
			return
		}
		prev := math.Inf(1)
		for k := 1; k <= 64; k++ {
			v := r.Rate(k)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > prev || k == 1 && v == 0 {
				t.Fatalf("%q: R(%d) = %v after R(%d) = %v", spec, k, v, k-1, prev)
			}
			prev = v
		}
	})
}
