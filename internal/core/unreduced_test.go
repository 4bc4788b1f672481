package core

// forEachAlloc enumerates every legal strategy matrix of the game (all
// users, every row within the user's budget) and calls fn with a reused
// Alloc that fn must treat as read-only. Returning false stops the walk.
// It refuses to run when the strategy space exceeds maxProfiles. It is the
// same gridWalk that EnumerateNE and
// FindParetoImprovement run.
func forEachAlloc(g *Game, maxProfiles int64, fn func(*Alloc) bool) error {
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return err
	}
	return gridWalk(g, rows, fn)
}
