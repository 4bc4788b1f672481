package core

import "slices"

// Row memo: exchangeable users within one allocation. User i's best
// response depends only on its budget and on the external loads
// load - row_i, and its current utility only on row_i and the loads. Two
// users with the same budget and the same row on the same allocation
// therefore get bit-identical DP results and deviation verdicts, so one DP
// answers for both. In the many-users, few-channels regime most users
// share a row with someone, and the sweep and the live verifier use this
// memo to run each distinct DP once.
//
// Keys are a 64-bit hash of (budget, row); every hit is confirmed entry by
// entry against the representative's budget and row, so a hash collision
// is never memoised — the colliding user simply gets its own DP.

// rowRep is one memo entry: the representative user of a (budget, row)
// class and its budget (the row is read back from the allocation).
type rowRep struct {
	user   int
	budget int
}

// FNV-1a parameters, folded over whole words rather than bytes so rows and
// budgets of any magnitude hash without truncation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rowHash hashes user i's budget and strategy row.
func rowHash(a *Alloc, i, budget int) uint64 {
	h := uint64(fnvOffset64)
	h ^= uint64(budget)
	h *= fnvPrime64
	for _, v := range a.m[i] {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	return h
}

// ResetRowMemo empties the workspace's (budget, row) memo and its list of
// unanswered users, sized for an allocation of the given number of users.
// Entries name users of one allocation, so callers reset before memoising
// against a new allocation and whenever a row of the current one changes.
// Storage is sized once and kept: a recycled workspace memoises without
// allocating.
func (ws *Workspace) ResetRowMemo(users int) {
	if ws.rowReps == nil {
		ws.rowReps = make(map[uint64]rowRep, users)
	}
	clear(ws.rowReps)
	if cap(ws.rowMiss) < users {
		ws.rowMiss = make([]int, 0, users)
	}
	ws.rowMiss = ws.rowMiss[:0]
}

// RowRep looks user i of a up in the row memo. If a user j registered
// since the last ResetRowMemo holds exactly the same budget and row, it
// returns (j, true): j's DP result and verdict are user i's. Otherwise it
// returns (i, false) and appends i to RowMisses; i becomes the class
// representative unless its hash is held by a different (budget, row) —
// a collision, which is left unmemoised.
//
// ResetRowMemo must have been called first, and the allocation must not
// change between registration and lookup: the memo compares rows as they
// are now.
func (ws *Workspace) RowRep(a *Alloc, i, budget int) (int, bool) {
	h := rowHash(a, i, budget)
	if rep, ok := ws.rowReps[h]; ok {
		if rep.budget == budget && slices.Equal(a.m[rep.user], a.m[i]) {
			return rep.user, true
		}
	} else {
		ws.rowReps[h] = rowRep{user: i, budget: budget}
	}
	ws.rowMiss = append(ws.rowMiss, i)
	return i, false
}

// RowMisses returns, in call order, every user RowRep did not answer from
// the memo since the last ResetRowMemo — one representative per distinct
// (budget, row) class, plus any collision. The slice aliases the
// workspace.
func (ws *Workspace) RowMisses() []int { return ws.rowMiss }
