package core

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/des"
)

// TieBreak selects among equally attractive channels in Algorithm 1.
type TieBreak int

// Tie-breaking policies. TieFirst reproduces the deterministic reading of
// the paper's pseudocode; TieRandom models devices picking uniformly among
// least-loaded channels; TieLast is an adversarially different deterministic
// order used in tests to show the NE property is tie-break independent.
const (
	TieFirst TieBreak = iota + 1
	TieRandom
	TieLast
)

// String implements fmt.Stringer.
func (t TieBreak) String() string {
	switch t {
	case TieFirst:
		return "first"
	case TieRandom:
		return "random"
	case TieLast:
		return "last"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(t))
	}
}

// algorithm1Config carries the functional options of Algorithm1.
type algorithm1Config struct {
	tie     TieBreak
	seed    uint64
	order   []int
	literal bool
}

// Algorithm1Option configures Algorithm1.
type Algorithm1Option func(*algorithm1Config)

// WithTieBreak selects the tie-breaking policy (default TieFirst).
func WithTieBreak(t TieBreak) Algorithm1Option {
	return func(c *algorithm1Config) { c.tie = t }
}

// WithSeed fixes the RNG seed used by TieRandom (default 0).
func WithSeed(seed uint64) Algorithm1Option {
	return func(c *algorithm1Config) { c.seed = seed }
}

// WithOrder sets the order in which users allocate (a permutation of
// 0..|N|-1). The paper's algorithm is sequential and centralised; the order
// is part of the coordination. Default is 0, 1, 2, ...
func WithOrder(order []int) Algorithm1Option {
	return func(c *algorithm1Config) { c.order = append([]int(nil), order...) }
}

// WithLiteralRule makes the non-flat branch follow the paper's pseudocode to
// the letter: the radio goes to *any* least-loaded channel, even one the
// user already occupies. Under unlucky tie-breaking this can stack a user's
// radios on one channel and the result is then NOT a Nash equilibrium —
// a disambiguation gap in the paper's Algorithm 1 that experiment E10
// quantifies. The default (corrected) rule prefers least-loaded channels the
// user does not occupy yet, which always lands on a Theorem-1 NE.
func WithLiteralRule() Algorithm1Option {
	return func(c *algorithm1Config) { c.literal = true }
}

// Algorithm1 runs the paper's Algorithm 1: users sequentially place their
// k (or k_i) radios one at a time; each radio goes to a least-loaded channel, except
// that when all loads are equal it goes to a channel the user does not
// occupy yet. With a common k the result is always a Pareto-optimal Nash
// equilibrium (Theorems 1 and 2); with per-user budgets it empirically
// still lands on an exact one (E11).
func Algorithm1(g *Game, opts ...Algorithm1Option) (*Alloc, error) {
	cfg := algorithm1Config{tie: TieFirst}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch cfg.tie {
	case TieFirst, TieRandom, TieLast:
	default:
		return nil, fmt.Errorf("core: unknown tie break %d", int(cfg.tie))
	}
	order := cfg.order
	if order == nil {
		order = make([]int, g.Users())
		for i := range order {
			order[i] = i
		}
	}
	if err := checkPermutation(order, g.Users()); err != nil {
		return nil, err
	}
	rng := des.NewRNG(cfg.seed)

	a := g.NewEmptyAlloc()
	placer := Placer{Tie: cfg.tie, RNG: rng, Literal: cfg.literal}
	for _, i := range order {
		row, err := placer.Place(a.Loads(), g.Budget(i))
		if err != nil {
			return nil, fmt.Errorf("core: algorithm1 user %d: %w", i, err)
		}
		if err := a.SetRow(i, row); err != nil {
			return nil, fmt.Errorf("core: algorithm1 applying row for user %d: %w", i, err)
		}
	}
	return a, nil
}

// Placer implements the per-user inner loop of Algorithm 1: place k radios
// one at a time against a fixed background load vector. It is shared by the
// centralised Algorithm1 and the distributed protocol (package dist), where
// each device runs exactly this routine on the loads it learned from its
// peers.
type Placer struct {
	// Tie selects among equally attractive channels; zero value means
	// TieFirst.
	Tie TieBreak
	// RNG drives TieRandom; may be nil for deterministic policies.
	RNG *des.RNG
	// Literal reproduces the paper-literal candidate rule (see
	// WithLiteralRule).
	Literal bool
}

// Place returns a strategy row placing k radios against the background
// loads: each radio goes to a least-loaded channel (counting radios placed
// so far), preferring channels this row does not use yet unless Literal is
// set. The input slice is not modified.
func (p Placer) Place(loads []int, k int) ([]int, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("core: place: no channels")
	}
	if k < 0 || k > len(loads) {
		return nil, fmt.Errorf("core: place: k = %d out of [0, %d]", k, len(loads))
	}
	tie := p.Tie
	if tie == 0 {
		tie = TieFirst
	}
	if tie == TieRandom && p.RNG == nil {
		return nil, fmt.Errorf("core: place: TieRandom requires an RNG")
	}
	work := append([]int(nil), loads...)
	row := make([]int, len(loads))
	candidates := make([]int, 0, len(loads))
	for j := 0; j < k; j++ {
		minLoad := work[0]
		for _, l := range work[1:] {
			if l < minLoad {
				minLoad = l
			}
		}
		candidates = candidates[:0]
		if !p.Literal {
			for c, l := range work {
				if l == minLoad && row[c] == 0 {
					candidates = append(candidates, c)
				}
			}
		}
		if len(candidates) == 0 {
			for c, l := range work {
				if l == minLoad {
					candidates = append(candidates, c)
				}
			}
		}
		var pick int
		switch tie {
		case TieFirst:
			pick = candidates[0]
		case TieLast:
			pick = candidates[len(candidates)-1]
		case TieRandom:
			pick = candidates[p.RNG.Intn(len(candidates))]
		default:
			return nil, fmt.Errorf("core: place: unknown tie break %d", int(tie))
		}
		row[pick]++
		work[pick]++
	}
	return row, nil
}

// checkPermutation verifies order is a permutation of 0..n-1.
func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("core: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("core: order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[v] = true
	}
	return nil
}
