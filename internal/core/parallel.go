package core

import (
	"fmt"
	"runtime"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/engine"
)

// EnumerateNEParallel is EnumerateNE sharded over the engine's worker
// pool by pinned leading rows of the profile grid (see shardDigits). User
// 0 is the grid's most significant digit, so concatenating the shard
// results in digit order reproduces the serial odometer order: the output
// is identical, equilibrium for equilibrium, to the serial EnumerateNE at
// any worker count or sharding depth. workers < 1 means runtime.NumCPU().
func EnumerateNEParallel(g *Game, maxProfiles int64, workers int) ([]*Alloc, error) {
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	shardCount, digits := shardDigits(rows, workers)
	shards, _, err := engine.Map(shardCount, func(job int, _ *des.RNG) ([]*Alloc, error) {
		nes, err := neShard(g, rows, digits(job))
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", job, err)
		}
		return nes, nil
	}, engine.Workers(workers))
	if err != nil {
		return nil, err
	}
	var all []*Alloc
	for _, shard := range shards {
		all = append(all, shard...)
	}
	return all, nil
}

// shardDigits picks the sharding depth for the parallel searches and
// returns the shard count plus the decoder from a job index to its pinned
// leading digits (job is the serial walk's leading odometer reading).
// Shard on users 0 and 1 when single-row shards cannot fill the pool
// twice over (the "2×workers" rule keeps per-shard work comfortably above
// pool overhead while levelling uneven shard costs).
func shardDigits(rows [][][]int, workers int) (int, func(job int) []int) {
	pool := workers
	if pool < 1 {
		pool = runtime.NumCPU()
	}
	first := len(rows[0])
	if len(rows) < 2 || first >= 2*pool {
		return first, func(job int) []int { return []int{job} }
	}
	second := len(rows[1])
	return first * second, func(job int) []int { return []int{job / second, job % second} }
}

// FindParetoImprovementParallel is FindParetoImprovement sharded over the
// engine's worker pool by pinned leading rows of the profile grid, with
// the same depth rule as EnumerateNEParallel. Every shard returns its
// first dominating profile in odometer order (or nil); the overall result
// is the witness of the lowest-numbered non-empty shard. User 0 is the
// grid's most significant digit, so lower shards hold earlier profiles and
// that witness is exactly the serial search's at any worker count.
// workers < 1 means runtime.NumCPU().
func FindParetoImprovementParallel(g *Game, a *Alloc, eps float64, maxProfiles int64, workers int) (*Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	base := g.Utilities(a)
	shardCount, digits := shardDigits(rows, workers)
	shards, _, err := engine.Map(shardCount, func(job int, _ *des.RNG) (*Alloc, error) {
		w, err := paretoShard(g, rows, base, eps, digits(job))
		if err != nil {
			return nil, fmt.Errorf("core: pareto shard %d: %w", job, err)
		}
		return w, nil
	}, engine.Workers(workers))
	if err != nil {
		return nil, err
	}
	for _, w := range shards {
		if w != nil {
			return w, nil
		}
	}
	return nil, nil
}
