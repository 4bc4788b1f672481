package core

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Classes is a live index of exchangeable users. User i's best response
// depends only on its budget and on the external loads load - row_i, and
// its current utility only on row_i and the loads. Two users with the same
// budget and the same row on the same allocation therefore get
// bit-identical DP results and deviation verdicts, so one DP answers for
// both. In the many-users, few-channels regime most users share a row with
// someone: the index interns each user's exact (budget, row) into a dense
// class id, so the re-equilibration sweep and the live verifier run one DP
// per class and find a user's class with one array read.
//
// Keys are the exact varint bytes of the budget and the row, so two users
// share a class iff their budgets and rows agree entry by entry; there are
// no hash collisions to handle. Ids of emptied classes go on a free list
// and are reused, so the table stays O(live classes). Interning costs
// O(|C|) and is paid only when a row or budget actually changes; interning
// into an existing class allocates nothing.
//
// The index mirrors one allocation's rows and is kept up to date by
// whoever mutates them: LiveGame on join, leave and budget changes, the
// best-response sweep after every move. A Classes is not safe for
// concurrent mutation.
type Classes struct {
	channels int
	classOf  []int          // user -> class id
	count    []int          // class -> member count; 0 marks a free id
	budget   []int          // class -> budget
	rows     []int          // class c's row is rows[c*channels : (c+1)*channels]
	key      []string       // class -> its intern key
	ids      map[string]int // exact (budget, row) bytes -> class id
	free     []int          // ids of emptied classes, reused last-in first-out
	buf      []byte         // key scratch
}

// newClasses returns an empty index for rows of the given width.
func newClasses(channels int) *Classes {
	return &Classes{channels: channels, ids: make(map[string]int)}
}

// NewClasses groups the users of a under g's budgets, in user order: the
// index of a cold run that has no live game to keep one.
func NewClasses(g *Game, a *Alloc) *Classes {
	cs := newClasses(a.channels)
	cs.classOf = make([]int, 0, a.users)
	for i := 0; i < a.users; i++ {
		cs.Append(g.Budget(i), a.m[i])
	}
	return cs
}

// Size returns the bound on class ids: every id, live or free, is below it.
func (cs *Classes) Size() int { return len(cs.count) }

// Of returns user i's class id.
func (cs *Classes) Of(i int) int { return cs.classOf[i] }

// Count returns the number of members of class c (0 for a free id).
func (cs *Classes) Count(c int) int { return cs.count[c] }

// Row returns the strategy row class c's members share. The slice aliases
// the index and is read-only.
func (cs *Classes) Row(c int) []int {
	return cs.rows[c*cs.channels : (c+1)*cs.channels : (c+1)*cs.channels]
}

// Append indexes a new last user with the given budget and row and
// returns its class, mirroring Alloc.AppendRow plus SetRow.
func (cs *Classes) Append(budget int, row []int) int {
	c := cs.intern(budget, row)
	cs.classOf = append(cs.classOf, c)
	return c
}

// Set re-interns user i after its budget or row changed and returns its
// class. An unchanged (budget, row) costs one O(|C|) compare. The old
// class is released before the new one is interned, so Set never grows
// Size beyond max(Size, Users).
func (cs *Classes) Set(i, budget int, row []int) int {
	old := cs.classOf[i]
	if cs.budget[old] == budget && slices.Equal(cs.Row(old), row) {
		return old
	}
	cs.release(old)
	c := cs.intern(budget, row)
	cs.classOf[i] = c
	return c
}

// RemoveSwap drops user i and moves the last user into its slot,
// mirroring Alloc.RemoveRowSwap.
func (cs *Classes) RemoveSwap(i int) {
	cs.release(cs.classOf[i])
	last := len(cs.classOf) - 1
	cs.classOf[i] = cs.classOf[last]
	cs.classOf = cs.classOf[:last]
}

// appendKey appends the exact key of (budget, row): signed varints are
// self-delimiting, so distinct pairs never share bytes.
func appendKey(dst []byte, budget int, row []int) []byte {
	dst = binary.AppendVarint(dst, int64(budget))
	for _, v := range row {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// intern counts one more member of the (budget, row) class, creating the
// class — on a free id if there is one — when it is new.
func (cs *Classes) intern(budget int, row []int) int {
	cs.buf = appendKey(cs.buf[:0], budget, row)
	if c, ok := cs.ids[string(cs.buf)]; ok {
		cs.count[c]++
		return c
	}
	var c int
	if n := len(cs.free); n > 0 {
		c, cs.free = cs.free[n-1], cs.free[:n-1]
	} else {
		c = len(cs.count)
		cs.count = append(cs.count, 0)
		cs.budget = append(cs.budget, 0)
		cs.key = append(cs.key, "")
		cs.rows = append(cs.rows, make([]int, cs.channels)...)
	}
	k := string(cs.buf)
	cs.ids[k] = c
	cs.key[c] = k
	cs.count[c] = 1
	cs.budget[c] = budget
	copy(cs.Row(c), row)
	return c
}

// release counts one member of class c fewer and frees the id when the
// class empties.
func (cs *Classes) release(c int) {
	cs.count[c]--
	if cs.count[c] == 0 {
		delete(cs.ids, cs.key[c])
		cs.key[c] = ""
		cs.free = append(cs.free, c)
	}
}

// check verifies the index against a fresh exact grouping of a's users
// under the given budgets (a may be nil when there are none): every user's
// class stores its budget and row, users share a class iff their
// (budget, row) agree, member counts are exact, and the intern map, keys
// and free list describe exactly the live and the free ids. O(N·|C|).
func (cs *Classes) check(a *Alloc, budgets []int) error {
	n := len(budgets)
	if len(cs.classOf) != n {
		return fmt.Errorf("core: class index holds %d users, game has %d", len(cs.classOf), n)
	}
	members := make([]int, len(cs.count))
	first := make(map[string]int, n) // fresh grouping: key -> first user
	for i := 0; i < n; i++ {
		c := cs.classOf[i]
		if c < 0 || c >= len(cs.count) {
			return fmt.Errorf("core: user %d has class %d outside [0, %d)", i, c, len(cs.count))
		}
		members[c]++
		if cs.budget[c] != budgets[i] || !slices.Equal(cs.Row(c), a.m[i]) {
			return fmt.Errorf("core: user %d (budget %d, row %v) is in class %d (budget %d, row %v)",
				i, budgets[i], a.m[i], c, cs.budget[c], cs.Row(c))
		}
		k := string(appendKey(nil, budgets[i], a.m[i]))
		if j, ok := first[k]; !ok {
			first[k] = i
		} else if cs.classOf[j] != c {
			return fmt.Errorf("core: users %d and %d share (budget, row) but have classes %d and %d",
				j, i, cs.classOf[j], c)
		}
	}
	live := 0
	for c, m := range members {
		if m != cs.count[c] {
			return fmt.Errorf("core: class %d has %d members, index counts %d", c, m, cs.count[c])
		}
		if m > 0 {
			live++
			if cs.key[c] != string(appendKey(nil, cs.budget[c], cs.Row(c))) {
				return fmt.Errorf("core: class %d's key does not match its stored budget and row", c)
			}
			if id, ok := cs.ids[cs.key[c]]; !ok || id != c {
				return fmt.Errorf("core: class %d's key interns to %d (present %v)", c, id, ok)
			}
		}
	}
	if len(cs.ids) != live {
		return fmt.Errorf("core: intern map holds %d classes, %d are live", len(cs.ids), live)
	}
	isFree := make([]bool, len(cs.count))
	for _, c := range cs.free {
		if c < 0 || c >= len(cs.count) || cs.count[c] != 0 || isFree[c] {
			return fmt.Errorf("core: free list holds id %d that is out of range, live or listed twice", c)
		}
		isFree[c] = true
	}
	if live+len(cs.free) != len(cs.count) {
		return fmt.Errorf("core: %d live and %d free ids, table holds %d", live, len(cs.free), len(cs.count))
	}
	return nil
}
