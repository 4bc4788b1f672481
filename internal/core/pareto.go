package core

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/combin"
)

// gridWalk walks g's strategy grid in odometer order (user 0 the most
// significant digit, user u playing rows[u][i]), calling fn with a reused
// allocation fn must treat as read-only. Returning false stops the walk.
// Only rows whose index changed are re-set. A failing SetRow stops the
// walk with an error instead of truncating it. It is the unit of work of
// every exhaustive search.
func gridWalk(g *Game, rows [][][]int, fn func(*Alloc) bool) error {
	a := g.NewEmptyAlloc()
	sizes := make([]int, len(rows))
	prev := make([]int, len(rows))
	for u := range rows {
		sizes[u] = len(rows[u])
		prev[u] = -1
	}
	var setErr error
	err := combin.Product(sizes, func(idx []int) bool {
		for u, ri := range idx {
			if ri == prev[u] {
				continue
			}
			if err := a.SetRow(u, rows[u][ri]); err != nil {
				setErr = fmt.Errorf("core: setting row for user %d: %w", u, err)
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
