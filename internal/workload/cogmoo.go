package workload

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// generateCogMOO builds the cogmoo:N,C[,seed] family, after Ghasemi &
// Ghasemi's multi-objective channel allocation in cognitive radio networks
// (arXiv:2004.05767): N single-radio secondary users over C licensed
// channels with a pinned seeded random start. Unlike the bistritz regime,
// C < N is allowed: crowded cognitive bands force channel sharing.
func generateCogMOO(params string, r ratefn.Func) (*Scenario, error) {
	vals, err := parseInts(params)
	if err != nil {
		return nil, err
	}
	if len(vals) != 2 && len(vals) != 3 {
		return nil, fmt.Errorf("want cogmoo:N,C[,seed], got %d parameters", len(vals))
	}
	users, channels := vals[0], vals[1]
	seed := uint64(1)
	if len(vals) == 3 {
		if vals[2] < 0 {
			return nil, fmt.Errorf("negative seed %d", vals[2])
		}
		seed = uint64(vals[2])
	}
	if err := CheckCells(users, channels); err != nil {
		return nil, err
	}
	g, err := core.NewGame(users, channels, 1, r)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: fmt.Sprintf("cogmoo:%d,%d,%d", users, channels, seed),
		Description: fmt.Sprintf(
			"cognitive band (arXiv:2004.05767): %d single-radio secondary users, %d channels, seed %d",
			users, channels, seed),
		Game:  g,
		Alloc: dynamics.RandomAlloc(g, seed),
	}, nil
}
