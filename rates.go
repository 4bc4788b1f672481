package chanalloc

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/multiradio/chanalloc/internal/bianchi"
	"github.com/multiradio/chanalloc/internal/macsim"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// ParseRate parses the rate-function specification grammar shared by the
// command-line tools (chanalloc, allocd):
//
//	tdma:R0                      constant rate R0 (reservation TDMA)
//	harmonic:R0:alpha            R0 / (1 + alpha·(k-1))
//	geometric:R0:beta            R0 · beta^(k-1)
//	csma-practical[:1mbps|:80211b]  Bianchi DCF saturation throughput
//	csma-optimal[:1mbps|:80211b]    optimal-backoff throughput
//
// Every numeric parameter must be finite: NaN passes no range check and
// an infinite one makes R(k) NaN or +Inf.
func ParseRate(spec string) (RateFunc, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "tdma":
		if len(parts) != 2 {
			return nil, fmt.Errorf("rate %q: want tdma:R0", spec)
		}
		r0, err := parseFinite(parts[1])
		if err != nil || r0 <= 0 {
			return nil, fmt.Errorf("rate %q: bad R0", spec)
		}
		return TDMA(r0), nil
	case "harmonic":
		if len(parts) != 3 {
			return nil, fmt.Errorf("rate %q: want harmonic:R0:alpha", spec)
		}
		r0, err1 := parseFinite(parts[1])
		alpha, err2 := parseFinite(parts[2])
		if err1 != nil || err2 != nil || r0 <= 0 || alpha < 0 {
			return nil, fmt.Errorf("rate %q: bad parameters", spec)
		}
		return HarmonicRate(r0, alpha), nil
	case "geometric":
		if len(parts) != 3 {
			return nil, fmt.Errorf("rate %q: want geometric:R0:beta", spec)
		}
		r0, err1 := parseFinite(parts[1])
		beta, err2 := parseFinite(parts[2])
		if err1 != nil || err2 != nil || r0 <= 0 || beta <= 0 || beta > 1 {
			return nil, fmt.Errorf("rate %q: bad parameters", spec)
		}
		return GeometricRate(r0, beta), nil
	case "csma-practical", "csma-optimal":
		p := Default80211b()
		if len(parts) == 2 {
			switch parts[1] {
			case "1mbps":
				p = Bianchi1Mbps()
			case "80211b":
				// default
			default:
				return nil, fmt.Errorf("rate %q: unknown PHY %q", spec, parts[1])
			}
		} else if len(parts) > 2 {
			return nil, fmt.Errorf("rate %q: want %s[:1mbps|:80211b]", spec, parts[0])
		}
		if parts[0] == "csma-practical" {
			return PracticalCSMA(p)
		}
		return OptimalCSMA(p)
	default:
		return nil, fmt.Errorf("unknown rate function %q", spec)
	}
}

// parseFinite parses a rate parameter, refusing NaN and ±Inf.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not finite", s)
	}
	return v, err
}

// TDMA returns the reservation-TDMA rate function: R(k) = r0 for every
// k >= 1 (the paper's headline constant-rate regime, Figure 3's top line).
func TDMA(r0 float64) RateFunc { return ratefn.NewTDMA(r0) }

// HarmonicRate returns R(k) = r0 / (1 + alpha·(k-1)); alpha = 0 is constant
// and larger alpha degrades faster. Used by the ablation experiments to
// probe how much decay Theorem 1's sufficiency tolerates.
func HarmonicRate(r0, alpha float64) RateFunc { return ratefn.Harmonic{R0: r0, Alpha: alpha} }

// GeometricRate returns R(k) = r0 · beta^(k-1), 0 < beta <= 1.
func GeometricRate(r0, beta float64) RateFunc { return ratefn.Geometric{R0: r0, Beta: beta} }

// DCFParams parameterises Bianchi's 802.11 DCF model.
type DCFParams = bianchi.Params

// DCFResult is a solved DCF operating point.
type DCFResult = bianchi.Result

// Default80211b returns 802.11b DSSS parameters (11 Mbit/s data rate, long
// preamble).
func Default80211b() DCFParams { return bianchi.Default80211b() }

// Bianchi1Mbps returns the 1 Mbit/s parameter set of Bianchi's JSAC paper,
// useful for validating against his published numbers.
func Bianchi1Mbps() DCFParams { return bianchi.Bianchi1Mbps() }

// SolveDCF computes the saturation operating point for n stations under
// binary exponential backoff (the "practical CSMA/CA" of Figure 3).
func SolveDCF(p DCFParams, n int) (DCFResult, error) { return bianchi.Solve(p, n) }

// PracticalCSMA adapts the practical-DCF saturation throughput to a game
// rate function (a monotone envelope, which stores every value it solves).
func PracticalCSMA(p DCFParams) (RateFunc, error) { return bianchi.PracticalRate(p) }

// OptimalCSMA adapts the optimal-backoff throughput to a game rate function.
func OptimalCSMA(p DCFParams) (RateFunc, error) { return bianchi.OptimalRate(p) }

// CSMASimResult reports a slot-level saturated CSMA/CA simulation.
type CSMASimResult = macsim.CSMAResult

// SimulateCSMA runs the slot-level DCF simulator for n stations; it
// validates the analytic model and the equal-share assumption (Jain index
// ≈ 1 across stations).
func SimulateCSMA(p DCFParams, n int, cycles int64, seed uint64) (CSMASimResult, error) {
	return macsim.SimulateCSMA(p, n, cycles, seed)
}

// EmpiricalCSMARate measures R(k) for k = 1..maxK by simulation and freezes
// the result into a table-backed rate function.
func EmpiricalCSMARate(p DCFParams, maxK int, cycles int64, seed uint64) (RateFunc, error) {
	return macsim.EmpiricalCSMARate(p, maxK, cycles, seed)
}
