package bianchi

import (
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// PracticalRate adapts the practical-DCF saturation throughput S(k) to the
// game's rate-function interface (the "practical CSMA/CA" curve of the
// paper's Figure 3). The result is wrapped in a monotone envelope — Bianchi
// throughput can rise marginally between n=1 and n=2 for some parameter sets
// — which also stores every value it computes, because each evaluation
// solves a fixed point.
//
// Rate(k) is the aggregate MAC throughput in Mbit/s when k saturated radios
// share the channel.
func PracticalRate(p Params) (ratefn.Func, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inner := &solverFunc{params: p, name: "csma-practical", solve: Solve}
	return ratefn.NewMonotoneEnvelope(inner), nil
}

// OptimalRate adapts the optimal-backoff throughput to the rate-function
// interface (the "optimal CSMA/CA" curve of Figure 3). Near-constant in k.
func OptimalRate(p Params) (ratefn.Func, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inner := &solverFunc{params: p, name: "csma-optimal", solve: SolveOptimal}
	return ratefn.NewMonotoneEnvelope(inner), nil
}

// solverFunc is the raw (pre-envelope) adapter.
type solverFunc struct {
	params Params
	name   string
	solve  func(Params, int) (Result, error)
}

var _ ratefn.Func = (*solverFunc)(nil)

func (s *solverFunc) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	r, err := s.solve(s.params, k)
	if err != nil {
		// Parameters were validated at construction; a solver failure here
		// means the fixed point was not bracketed, which cannot happen for
		// valid parameters. Treat defensively as zero rate.
		return 0
	}
	return r.Throughput
}

func (s *solverFunc) Name() string { return s.name }
