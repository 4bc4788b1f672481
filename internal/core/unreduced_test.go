package core

// forEachAlloc enumerates every legal strategy matrix of the game (all
// users, every row within the user's budget) and calls fn with a reused
// Alloc that fn must treat as read-only. Returning false stops the walk.
// It refuses to run when the strategy space exceeds maxProfiles. It is the
// unreduced profile walk the NE pins compare the orbit walk against, and
// the same productWalk that FindParetoImprovement runs.
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
