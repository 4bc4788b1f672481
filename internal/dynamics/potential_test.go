package dynamics

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Potential is the reference form of the exact potential
// Φ(S) = Σ_c Σ_{j=1}^{k_c} R(j)/j, read straight from the rate function.
// For a single-radio move by a user with exactly one radio on the source
// channel and none on the target, the change in the mover's utility equals
// the change in Φ (Rosenthal's congestion-game potential specialised to
// this game). Game.Potential, which the tests of the convergence argument
// and cmd/chanalloc's report evaluate (no dynamics loop does), reads the
// game's rate table instead; TestGamePotentialMatchesReference pins the two
// bit for bit.
func Potential(r ratefn.Func, a *core.Alloc) float64 {
	var phi float64
	for c := 0; c < a.Channels(); c++ {
		for j := 1; j <= a.Load(c); j++ {
			phi += r.Rate(j) / float64(j)
		}
	}
	return phi
}

// TestGamePotentialMatchesReference checks that g.Potential equals the
// reference Potential by math.Float64bits over seeded legal allocations,
// full and with idle radios, of uniform and heterogeneous games under every
// rate family the dynamics tests use. A change to how Game.Potential sums Φ
// must change the reference the same way.
func TestGamePotentialMatchesReference(t *testing.T) {
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.NewTDMA(54),
		ratefn.Harmonic{R0: 1, Alpha: 0.4},
		ratefn.Harmonic{R0: 1, Alpha: 0.5},
		ratefn.Harmonic{R0: 3, Alpha: 2},
		ratefn.Geometric{R0: 1, Beta: 0.8},
		ratefn.Geometric{R0: 3, Beta: 0.5},
	}
	checked := 0
	for _, r := range rates {
		uniform, err := core.NewGame(24, 6, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		hetero, err := core.NewHeteroGame(5, []int{1, 5, 3, 2, 4, 1, 5, 2}, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*core.Game{uniform, hetero} {
			for seed := uint64(1); seed <= 20; seed++ {
				a := RandomAlloc(g, seed)
				rng := des.NewRNG(seed)
				// Idle some radios, so the loads range below full deployment.
				for i := 0; i < g.Users(); i++ {
					for c := 0; c < g.Channels(); c++ {
						if k := a.Radios(i, c); k > 0 && rng.Intn(3) == 0 {
							if err := a.Add(i, c, -rng.Intn(k+1)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := g.CheckAlloc(a); err != nil {
						t.Fatal(err)
					}
					got, want := g.Potential(a), Potential(r, a)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %d users seed %d user %d: g.Potential = %v (%#x), reference %v (%#x)\n%v",
							r.Name(), g.Users(), seed, i, got, math.Float64bits(got), want, math.Float64bits(want), a)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d allocations checked", checked)
}
