// Package ratefn defines the channel rate function R(k_c) of the
// multi-radio channel allocation game: the total bitrate available on one
// channel as a function of the number of radio transmitters sharing it.
//
// The paper (§2) requires R to be non-increasing for k >= 1 with R(0) = 0.
// Reservation-based TDMA and CSMA/CA with optimal backoff windows yield a
// constant R; practical CSMA/CA (e.g. 802.11 DCF) yields a decreasing R due
// to collisions (paper Figure 3).
//
// Implementations in this package cover the analytic families used by the
// experiments; package bianchi adapts the 802.11 DCF model to this
// interface.
package ratefn

import (
	"fmt"
	"math"
	"sync"
)

// Func is a channel rate function R(k): the total available bitrate on a
// channel occupied by k radios, in arbitrary consistent units (the
// experiments use Mbit/s).
//
// Contract: Rate(0) == 0, Rate(k) >= 0, and Rate is non-increasing on k >= 1.
// Validate checks the contract on a prefix of the domain.
type Func interface {
	// Rate returns R(k). k < 0 is treated as 0.
	Rate(k int) float64
	// Name returns a short human-readable identifier used in tables.
	Name() string
}

// Validate checks the Func contract (R(0)=0, non-negativity, monotone
// non-increase) for k in [0, maxK]. It returns nil if the contract holds.
func Validate(f Func, maxK int) error {
	if f == nil {
		return fmt.Errorf("ratefn: nil Func")
	}
	if maxK < 1 {
		return fmt.Errorf("ratefn: Validate needs maxK >= 1, got %d", maxK)
	}
	if r0 := f.Rate(0); r0 != 0 {
		return fmt.Errorf("ratefn: %s.Rate(0) = %v, want 0", f.Name(), r0)
	}
	prev := math.Inf(1)
	for k := 1; k <= maxK; k++ {
		r := f.Rate(k)
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("ratefn: %s.Rate(%d) = %v, want non-negative", f.Name(), k, r)
		}
		if r > prev+1e-12 {
			return fmt.Errorf("ratefn: %s increases from R(%d)=%v to R(%d)=%v",
				f.Name(), k-1, prev, k, r)
		}
		prev = r
	}
	return nil
}

// Constant models reservation-based TDMA (and CSMA/CA with optimal backoff
// windows): the channel sustains rate R0 regardless of how many radios share
// it. This is the regime the paper's headline results assume.
type Constant struct {
	R0 float64
}

var _ Func = Constant{}

// NewTDMA returns the reservation-TDMA rate function with total channel rate
// r0 (the paper's "reservation TDMA" curve in Figure 3).
func NewTDMA(r0 float64) Constant { return Constant{R0: r0} }

// Rate returns R0 for any k >= 1 and 0 for k <= 0.
func (c Constant) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return c.R0
}

// Name implements Func.
func (c Constant) Name() string { return fmt.Sprintf("tdma(%.3g)", c.R0) }

// Harmonic models a sharply degrading channel: R(k) = R0 / (1 + Alpha*(k-1)).
// Alpha = 0 reduces to Constant; larger Alpha degrades faster. Alpha must be
// >= 0 for the monotonicity contract to hold.
type Harmonic struct {
	R0    float64
	Alpha float64
}

var _ Func = Harmonic{}

// Rate implements Func.
func (h Harmonic) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return h.R0 / (1 + h.Alpha*float64(k-1))
}

// Name implements Func.
func (h Harmonic) Name() string { return fmt.Sprintf("harmonic(%.3g,α=%.3g)", h.R0, h.Alpha) }

// Geometric models exponential degradation: R(k) = R0 * Beta^(k-1) with
// 0 < Beta <= 1.
type Geometric struct {
	R0   float64
	Beta float64
}

var _ Func = Geometric{}

// Rate implements Func.
func (g Geometric) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return g.R0 * math.Pow(g.Beta, float64(k-1))
}

// Name implements Func.
func (g Geometric) Name() string { return fmt.Sprintf("geometric(%.3g,β=%.3g)", g.R0, g.Beta) }

// Linear models additive degradation clamped at zero:
// R(k) = max(0, R0 - Slope·(k-1)). Unlike Harmonic and Geometric it reaches
// exactly zero at finite load, exercising the R = 0 edge cases of the
// welfare optimisers and the best-response oracle.
type Linear struct {
	R0    float64
	Slope float64
}

var _ Func = Linear{}

// Rate implements Func.
func (l Linear) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	r := l.R0 - l.Slope*float64(k-1)
	if r < 0 {
		return 0
	}
	return r
}

// Name implements Func.
func (l Linear) Name() string { return fmt.Sprintf("linear(%.3g,s=%.3g)", l.R0, l.Slope) }

// Table is a rate function backed by explicit samples: Rate(k) = Values[k-1]
// for 1 <= k <= len(Values), and Values[len-1] beyond the table (a saturated
// tail keeps the function defined on all of N). Use NewTable to validate
// monotonicity up front.
type Table struct {
	name   string
	values []float64
}

var _ Func = (*Table)(nil)

// NewTable builds a Table rate function from the given samples, validating
// non-negativity and monotone non-increase. The slice is copied.
func NewTable(name string, values []float64) (*Table, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("ratefn: table %q needs at least one value", name)
	}
	prev := math.Inf(1)
	for i, v := range values {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("ratefn: table %q value %d is %v, want non-negative", name, i, v)
		}
		if v > prev+1e-12 {
			return nil, fmt.Errorf("ratefn: table %q increases at index %d (%v -> %v)", name, i, prev, v)
		}
		prev = v
	}
	return &Table{name: name, values: append([]float64(nil), values...)}, nil
}

// Rate implements Func.
func (t *Table) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(t.values) {
		return t.values[len(t.values)-1]
	}
	return t.values[k-1]
}

// Name implements Func.
func (t *Table) Name() string { return t.name }

// Len reports the number of explicit samples in the table.
func (t *Table) Len() int { return len(t.values) }

// MonotoneEnvelope wraps an arbitrary rate model with the running minimum
//
//	R'(k) = min_{1 <= j <= k} R(j)
//
// guaranteeing the non-increasing contract even when the inner model is not
// perfectly monotone (e.g. an empirical simulation estimate, or Bianchi's
// throughput which can wiggle at small n). The envelope is computed lazily
// and memoised; it is safe for concurrent use.
type MonotoneEnvelope struct {
	inner Func

	mu   sync.Mutex
	mins []float64 // mins[k-1] = min over 1..k
}

var _ Func = (*MonotoneEnvelope)(nil)

// NewMonotoneEnvelope wraps inner with the running-minimum envelope.
func NewMonotoneEnvelope(inner Func) *MonotoneEnvelope {
	return &MonotoneEnvelope{inner: inner}
}

// Rate implements Func.
func (m *MonotoneEnvelope) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.mins) < k {
		next := m.inner.Rate(len(m.mins) + 1)
		if n := len(m.mins); n > 0 && m.mins[n-1] < next {
			next = m.mins[n-1]
		}
		m.mins = append(m.mins, next)
	}
	return m.mins[k-1]
}

// Name implements Func.
func (m *MonotoneEnvelope) Name() string { return "monotone(" + m.inner.Name() + ")" }
