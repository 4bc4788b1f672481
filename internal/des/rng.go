// Package des holds RNG, the seeded SplitMix64 generator behind every
// random draw in the module, from the slot-level MAC simulators (package
// macsim) and the churn traces (package live) to the dynamics and the
// engine's per-job streams. Seeding is explicit, so a seed fixes a run bit
// for bit. The package is named after the discrete-event engine it once
// also held.
package des

import "math"

// RNG is a SplitMix64 pseudo-random generator. It is tiny, fast, has
// well-understood statistical quality for simulation workloads, and — unlike
// math/rand's global functions — makes seeding explicit so simulation runs
// are reproducible bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand's contract — callers control n, so this is a programmer error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("des: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; rejection sampling keeps the distribution exactly uniform.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1, via
// inverse-transform sampling (adequate for event inter-arrival times).
func (r *RNG) ExpFloat64() float64 {
	// Avoid log(0) by mapping the (measure-zero) 0 draw to the smallest
	// positive uniform.
	u := r.Float64()
	if u == 0 {
		u = 1.0 / (1 << 53)
	}
	return -math.Log(u)
}
