// Package core implements the multi-radio channel allocation game of
// Félegyházi, Čagalj and Hubaux (ICDCS 2006): strategy matrices, utilities,
// machine-checkable versions of the paper's Lemmas 1-4, Proposition 1 and
// Theorems 1-2, exact best responses, and the paper's Algorithm 1.
//
// Model (paper §2): |N| users each own k <= |C| radios and allocate them
// over |C| orthogonal channels. The total rate R(k_c) available on a channel
// is a non-increasing function of the number of radios k_c using it and is
// shared equally among them, so user i earns
//
//	U_i(S) = Σ_c  k_{i,c} / k_c · R(k_c)        (Eq. 3)
//
// All analysis code works for arbitrary non-increasing R; the paper's
// headline regime (reservation TDMA / optimal CSMA-CA) is the constant R.
//
// Budgets may also differ across users (k_i <= |C|, NewHeteroGame): one
// Game type serves both, with the uniform game the case of equal k_i. The
// paper assumes a common k; empirically (see the package tests and
// experiment E11) its results carry beyond that assumption:
//
//   - Lemma 1 (full deployment, CheckLemma1 against each k_i) and
//     Proposition 1 (loads within one radio) remain necessary for Nash
//     equilibria under positive constant rates;
//   - the sequential greedy allocation (Algorithm 1 run with per-user
//     budgets) still lands on an exact Nash equilibrium.
//
// Theorem 1's closed form is stated for a common k only; TheoremNE
// refuses a mixed-budget game (see Game.Radios).
//
// The mutable form of the game, LiveGame, lets users join, leave and
// change budgets while its derived state stays consistent.
package core

import (
	"fmt"
	"math"
	"strings"
)

// Alloc is a channel allocation: the strategy matrix S whose entry (i, c) is
// the number of radios user i operates on channel c (paper Figure 2). It
// maintains per-channel load sums incrementally.
type Alloc struct {
	users    int
	channels int
	m        [][]int // m[i][c] >= 0
	load     []int   // load[c] = Σ_i m[i][c]
	// gen counts the mutations of m and load. SetRow, Add (and so Move),
	// AppendRow and RemoveRowSwap, their only writers, bump it, so a
	// (pointer, gen) pair names one state of the allocation: the key of
	// the workspace's channel summary (see Workspace.summary) and of
	// LiveGame's legality stamp (see LiveGame.CheckAlloc).
	gen uint64
}

// NewAlloc returns an all-zero allocation for the given dimensions.
func NewAlloc(users, channels int) (*Alloc, error) {
	if users < 1 {
		return nil, fmt.Errorf("core: users = %d, want >= 1", users)
	}
	if channels < 1 {
		return nil, fmt.Errorf("core: channels = %d, want >= 1", channels)
	}
	m := make([][]int, users)
	cells := make([]int, users*channels)
	for i := range m {
		m[i], cells = cells[:channels:channels], cells[channels:]
	}
	return &Alloc{
		users:    users,
		channels: channels,
		m:        m,
		load:     make([]int, channels),
	}, nil
}

// AllocFromMatrix builds an allocation from an explicit strategy matrix.
// The matrix is copied; rows must be equal length and entries non-negative,
// and their sum must fit in an int. Cells are non-negative, so that one
// bound also keeps every user total and every channel load from wrapping.
func AllocFromMatrix(matrix [][]int) (*Alloc, error) {
	if len(matrix) == 0 || len(matrix[0]) == 0 {
		return nil, fmt.Errorf("core: empty strategy matrix")
	}
	a, err := NewAlloc(len(matrix), len(matrix[0]))
	if err != nil {
		return nil, err
	}
	total := 0
	for i, row := range matrix {
		if len(row) != a.channels {
			return nil, fmt.Errorf("core: row %d has %d channels, want %d", i, len(row), a.channels)
		}
		for c, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("core: negative radio count %d at (%d, %d)", v, i, c)
			}
			if v > math.MaxInt-total {
				return nil, fmt.Errorf("core: radio count %d at (%d, %d) overflows the matrix total", v, i, c)
			}
			total += v
			a.m[i][c] = v
			a.load[c] += v
		}
	}
	return a, nil
}

// Users reports the number of users (rows).
func (a *Alloc) Users() int { return a.users }

// Channels reports the number of channels (columns).
func (a *Alloc) Channels() int { return a.channels }

// Radios returns k_{i,c}, the radios of user i on channel c.
func (a *Alloc) Radios(i, c int) int { return a.m[i][c] }

// Load returns k_c, the total number of radios on channel c.
func (a *Alloc) Load(c int) int { return a.load[c] }

// Loads returns a copy of the per-channel load vector.
func (a *Alloc) Loads() []int { return append([]int(nil), a.load...) }

// UserTotal returns k_i, the total number of radios user i has deployed.
func (a *Alloc) UserTotal(i int) int {
	total := 0
	for _, v := range a.m[i] {
		total += v
	}
	return total
}

// TotalRadios returns Σ_i k_i, the number of deployed radios.
func (a *Alloc) TotalRadios() int {
	total := 0
	for _, l := range a.load {
		total += l
	}
	return total
}

// Row returns a copy of user i's strategy vector.
func (a *Alloc) Row(i int) []int { return append([]int(nil), a.m[i]...) }

// SetRow replaces user i's strategy vector, updating channel loads. The row
// is copied; entries must be non-negative, the length must match, and the
// allocation's total must still fit in an int, the bound AllocFromMatrix
// enforces (it also keeps every channel load from wrapping). A refused row
// leaves the allocation untouched.
func (a *Alloc) SetRow(i int, row []int) error {
	if i < 0 || i >= a.users {
		return fmt.Errorf("core: user %d out of range [0, %d)", i, a.users)
	}
	if len(row) != a.channels {
		return fmt.Errorf("core: row has %d channels, want %d", len(row), a.channels)
	}
	total := a.TotalRadios() - a.UserTotal(i)
	for c, v := range row {
		if v < 0 {
			return fmt.Errorf("core: negative radio count %d at channel %d", v, c)
		}
		if v > math.MaxInt-total {
			return fmt.Errorf("core: radio count %d at channel %d overflows the allocation total", v, c)
		}
		total += v
	}
	for c, v := range row {
		a.load[c] += v - a.m[i][c]
		a.m[i][c] = v
	}
	a.gen++
	return nil
}

// Add adjusts k_{i,c} by delta (which may be negative), updating the load.
// Like SetRow it refuses, leaving the allocation untouched, a change that
// would push the allocation's total past math.MaxInt.
func (a *Alloc) Add(i, c, delta int) error {
	if i < 0 || i >= a.users {
		return fmt.Errorf("core: user %d out of range [0, %d)", i, a.users)
	}
	if c < 0 || c >= a.channels {
		return fmt.Errorf("core: channel %d out of range [0, %d)", c, a.channels)
	}
	if delta > 0 && delta > math.MaxInt-a.TotalRadios() {
		return fmt.Errorf("core: adding %d radios at (%d, %d) overflows the allocation total", delta, i, c)
	}
	if a.m[i][c]+delta < 0 {
		return fmt.Errorf("core: user %d channel %d would go negative (%d%+d)", i, c, a.m[i][c], delta)
	}
	a.m[i][c] += delta
	a.load[c] += delta
	a.gen++
	return nil
}

// Move relocates one radio of user i from channel `from` to channel `to`
// (the unilateral deviation analysed throughout the paper's §3).
func (a *Alloc) Move(i, from, to int) error {
	if from == to {
		return fmt.Errorf("core: move from channel %d to itself", from)
	}
	if err := a.Add(i, from, -1); err != nil {
		return fmt.Errorf("core: move: %w", err)
	}
	if err := a.Add(i, to, +1); err != nil {
		// Roll back so the allocation stays consistent.
		_ = a.Add(i, from, +1)
		return fmt.Errorf("core: move: %w", err)
	}
	return nil
}

// AppendRow grows the allocation by one all-zero user row and returns the
// new row's index. Channel loads are unchanged (the new user deploys no
// radios yet). Together with RemoveRowSwap this is the dense-row mutation
// surface of the live-game layer: user churn edits the matrix in place
// instead of rebuilding a fixed-size allocation per event.
func (a *Alloc) AppendRow() int {
	a.m = append(a.m, make([]int, a.channels))
	a.users++
	a.gen++
	return a.users - 1
}

// RemoveRowSwap deletes user row i in O(|C|): the row's radios are
// subtracted from the channel loads, the LAST row is moved into slot i, and
// the matrix shrinks by one. The caller owns the id→row indirection and
// must remap the moved user (previous index Users()-1, now at i). Removing
// the last remaining row leaves a zero-user allocation that is only valid
// as a live-game internal state (NewAlloc never constructs one).
func (a *Alloc) RemoveRowSwap(i int) error {
	if i < 0 || i >= a.users {
		return fmt.Errorf("core: user %d out of range [0, %d)", i, a.users)
	}
	for c, v := range a.m[i] {
		a.load[c] -= v
	}
	last := a.users - 1
	a.m[i] = a.m[last]
	a.m[last] = nil
	a.m = a.m[:last]
	a.users = last
	a.gen++
	return nil
}

// Clone returns an independent deep copy.
func (a *Alloc) Clone() *Alloc {
	clone, err := NewAlloc(a.users, a.channels)
	if err != nil {
		// Dimensions of an existing Alloc are always valid.
		panic("core: clone of invalid alloc: " + err.Error())
	}
	for i := range a.m {
		copy(clone.m[i], a.m[i])
	}
	copy(clone.load, a.load)
	return clone
}

// Equal reports whether two allocations have identical dimensions and
// matrices.
func (a *Alloc) Equal(b *Alloc) bool {
	if b == nil || a.users != b.users || a.channels != b.channels {
		return false
	}
	for i := range a.m {
		for c := range a.m[i] {
			if a.m[i][c] != b.m[i][c] {
				return false
			}
		}
	}
	return true
}

// Matrix returns a deep copy of the strategy matrix.
func (a *Alloc) Matrix() [][]int {
	out := make([][]int, a.users)
	for i := range out {
		out[i] = append([]int(nil), a.m[i]...)
	}
	return out
}

// MinLoad returns the smallest channel load and the first channel achieving
// it.
func (a *Alloc) MinLoad() (load, channel int) {
	load, channel = a.load[0], 0
	for c := 1; c < a.channels; c++ {
		if a.load[c] < load {
			load, channel = a.load[c], c
		}
	}
	return load, channel
}

// MaxLoad returns the largest channel load and the first channel achieving
// it.
func (a *Alloc) MaxLoad() (load, channel int) {
	load, channel = a.load[0], 0
	for c := 1; c < a.channels; c++ {
		if a.load[c] > load {
			load, channel = a.load[c], c
		}
	}
	return load, channel
}

// ChannelSets partitions the channels into the paper's C_max (maximum load),
// C_min (minimum load) and C_rem (everything between); see §3.
func (a *Alloc) ChannelSets() (cmax, cmin, crem []int) {
	maxLoad, _ := a.MaxLoad()
	minLoad, _ := a.MinLoad()
	for c := 0; c < a.channels; c++ {
		switch {
		case a.load[c] == maxLoad:
			cmax = append(cmax, c)
		case a.load[c] == minLoad:
			cmin = append(cmin, c)
		default:
			crem = append(crem, c)
		}
	}
	if maxLoad == minLoad {
		// Flat allocation: C_max and C_min coincide.
		cmin = append([]int(nil), cmax...)
	}
	return cmax, cmin, crem
}

// String renders the strategy matrix in the style of the paper's Figure 2,
// with a load footer.
func (a *Alloc) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "")
	for c := 0; c < a.channels; c++ {
		fmt.Fprintf(&b, " c%-3d", c+1)
	}
	b.WriteByte('\n')
	for i := 0; i < a.users; i++ {
		fmt.Fprintf(&b, "u%-5d", i+1)
		for c := 0; c < a.channels; c++ {
			fmt.Fprintf(&b, " %-4d", a.m[i][c])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%6s", "load")
	for c := 0; c < a.channels; c++ {
		fmt.Fprintf(&b, " %-4d", a.load[c])
	}
	return b.String()
}
