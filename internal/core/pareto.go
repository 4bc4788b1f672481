package core

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/combin"
)

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

// gridWalk walks, in odometer order, the profiles of g's strategy grid
// whose leading users play the pinned rows (user u plays
// rows[u][pinned[u]]), calling fn with a reused allocation fn must treat
// as read-only. Returning false stops the walk. It is the unit of work of
// every exhaustive search: the parallel forms run it once per shard of
// pinned leading rows, the serial forms once with nothing pinned.
func gridWalk(g *Game, rows [][][]int, pinned []int, fn func(*Alloc) bool) error {
	a := g.NewEmptyAlloc()
	for u, ri := range pinned {
		if err := a.SetRow(u, rows[u][ri]); err != nil {
			return fmt.Errorf("core: setting pinned row for user %d: %w", u, err)
		}
	}
	sizes := make([]int, len(rows)-len(pinned))
	for i := range sizes {
		sizes[i] = len(rows[len(pinned)+i])
	}
	return productWalk(a, len(pinned), sizes, func(u, ri int) []int { return rows[u][ri] }, fn)
}

// neShard returns a clone of every profile of the pinned shard of g's
// strategy grid (see gridWalk) that the screened NE oracle accepts, in
// odometer order.
func neShard(g *Game, rows [][][]int, pinned []int) ([]*Alloc, error) {
	ws := Workspaces.Get()
	defer Workspaces.Put(ws)
	var out []*Alloc
	err := gridWalk(g, rows, pinned, func(a *Alloc) bool {
		if g.view.ScreenedNE(ws, a, g.budgets, DefaultEps) {
			out = append(out, a.Clone())
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// paretoShard walks the pinned shard of g's strategy grid (see gridWalk)
// and returns a clone of the first profile, in odometer order, that hurts
// nobody (u >= base-eps for every user) and helps someone (u > base+eps),
// or nil. Each profile is tested user by user and dropped at the first
// hurt user.
func paretoShard(g *Game, rows [][][]int, base []float64, eps float64, pinned []int) (*Alloc, error) {
	var found *Alloc
	err := gridWalk(g, rows, pinned, func(b *Alloc) bool {
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
