package core

import (
	"fmt"
	"testing"

	"github.com/multiradio/chanalloc/internal/combin"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Unreduced reference walks: the direct profile-grid enumeration and Pareto
// search that the symmetry-reduced OrbitEnumerator replaced. They stay here
// as the differential pins and the benchmark denominator of the orbit
// searches.

// forEachAlloc enumerates every legal strategy matrix of the game (all
// users, every row within the user's budget) and calls fn with a reused
// Alloc that fn must treat as read-only. Returning false stops the walk.
// It refuses to run when the strategy space exceeds maxProfiles.
func forEachAlloc(g *Game, maxProfiles int64, fn func(*Alloc) bool) error {
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return err
	}
	sizes := make([]int, g.Users())
	for u, r := range rows {
		sizes[u] = len(r)
	}
	return productWalk(g.NewEmptyAlloc(), 0, sizes, func(u, ri int) []int { return rows[u][ri] }, fn)
}

// productWalk enumerates the cartesian product of per-user strategy
// indices, setting rows of a for users offset..offset+len(sizes)-1 and
// calling fn with the reused allocation. The walk is odometer-aware: only
// rows whose index changed are re-set. A failing SetRow stops the walk
// with an error instead of truncating it.
func productWalk(a *Alloc, offset int, sizes []int, rowFor func(user, idx int) []int, fn func(*Alloc) bool) error {
	prev := make([]int, len(sizes))
	for i := range prev {
		prev[i] = -1
	}
	var setErr error
	err := combin.Product(sizes, func(idx []int) bool {
		for u, ri := range idx {
			if ri == prev[u] {
				continue
			}
			if err := a.SetRow(u+offset, rowFor(u+offset, ri)); err != nil {
				setErr = fmt.Errorf("core: setting row for user %d: %w", u+offset, err)
				return false
			}
			prev[u] = ri
		}
		return fn(a)
	})
	if err != nil {
		return err
	}
	return setErr
}

// findParetoImprovementUnreduced is the direct grid Pareto search: every
// profile is tested user by user, bailing on the first hurt user.
func findParetoImprovementUnreduced(g *Game, a *Alloc, eps float64, maxProfiles int64) (*Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	base := g.Utilities(a)
	var found *Alloc
	err := forEachAlloc(g, maxProfiles, func(b *Alloc) bool {
		strict := false
		for i := range base {
			u := g.Utility(b, i)
			if u < base[i]-eps {
				return true // someone is hurt; keep searching
			}
			if u > base[i]+eps {
				strict = true
			}
		}
		if strict {
			found = b.Clone()
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// BenchmarkParetoImprovement/unreduced measures the direct grid Pareto
// scan on the 4×4×2 reference game from an Algorithm 1 equilibrium: a
// Pareto-optimal input, so the whole 50625-profile grid is walked. It is
// the baseline of the root package's orbit and parallel variants.
func BenchmarkParetoImprovement(b *testing.B) {
	g, err := NewGame(4, 4, 2, ratefn.NewTDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	ne, err := Algorithm1(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unreduced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := findParetoImprovementUnreduced(g, ne, DefaultEps, 10_000_000)
			if err != nil {
				b.Fatal(err)
			}
			if w != nil {
				b.Fatal("Algorithm 1's NE must be Pareto-optimal")
			}
		}
	})
}
