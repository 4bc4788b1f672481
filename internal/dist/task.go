package dist

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/engine"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// RingTask is the registered engine task that runs one serialisable
// token-ring specification per job. Registering the ring as a named task is
// what lets protocol grids cross process — and, with the Cluster backend,
// machine — boundaries: a closure cannot be shipped to a remote worker, a
// RingSpec can.
const RingTask = "dist/ring"

// RateSpec is a serialisable channel rate function. Kind selects the family
// ("tdma", "harmonic", "geometric", "linear"); R0 is the single-user rate
// and Param the family's shape parameter (harmonic α, geometric β, linear
// slope; ignored by tdma).
type RateSpec struct {
	Kind  string  `json:"kind"`
	R0    float64 `json:"r0"`
	Param float64 `json:"param,omitempty"`
}

// Build materialises the rate function.
func (r RateSpec) Build() (ratefn.Func, error) {
	switch r.Kind {
	case "", "tdma":
		return ratefn.NewTDMA(r.R0), nil
	case "harmonic":
		return ratefn.Harmonic{R0: r.R0, Alpha: r.Param}, nil
	case "geometric":
		return ratefn.Geometric{R0: r.R0, Beta: r.Param}, nil
	case "linear":
		return ratefn.Linear{R0: r.R0, Slope: r.Param}, nil
	default:
		return nil, fmt.Errorf("dist: unknown rate kind %q (want tdma, harmonic, geometric or linear)", r.Kind)
	}
}

// Policy names accepted by RingSpec.
const (
	// PolicyGreedy water-fills once with deterministic first-channel
	// tie-breaks (the paper-literal Algorithm 1 reading).
	PolicyGreedy = "greedy"
	// PolicyGreedyRandom water-fills once with random tie-breaks seeded
	// from the run's private PRNG stream.
	PolicyGreedyRandom = "greedy-random"
	// PolicyBestResponse replays the exact best-response program on every
	// token visit.
	PolicyBestResponse = "bestresponse"
)

// RingSpec is one token-ring run, expressed entirely in serialisable terms
// so it can cross the Backend wire protocol: game dimensions, a rate
// family, per-user policy names and a round cap. Randomised policies draw
// their seeds from the run's private engine stream, so a grid of RingSpecs
// produces identical results on every backend and for any peer count.
type RingSpec struct {
	Users    int      `json:"users"`
	Channels int      `json:"channels"`
	Radios   int      `json:"radios"`
	Rate     RateSpec `json:"rate"`
	// Policies names each user's device policy. A single entry applies to
	// every user; otherwise one entry per user.
	Policies []string `json:"policies"`
	// MaxRounds caps token-ring sweeps (0 means the coordinator default).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// RingResult is the serialisable outcome of one ring run.
type RingResult struct {
	// Matrix is the agreed strategy matrix.
	Matrix [][]int `json:"matrix"`
	// NE reports the coordinator's equilibrium verdict.
	NE bool `json:"ne"`
	// Converged reports whether the ring went quiet before the round cap.
	Converged bool `json:"converged"`
	// Rounds, Moves and Messages mirror Stats.
	Rounds   int `json:"rounds"`
	Moves    int `json:"moves"`
	Messages int `json:"messages"`
}

// ringParams is the batch-wide parameter blob of RingTask.
type ringParams struct {
	Specs []RingSpec `json:"specs"`
}

// buildPolicy materialises one named policy. rng is the run's private
// stream; every random draw must come from it.
func buildPolicy(name string, rate ratefn.Func, rng *des.RNG) (Policy, error) {
	switch name {
	case PolicyGreedy:
		return &GreedyPolicy{Tie: core.TieFirst}, nil
	case PolicyGreedyRandom:
		return &GreedyPolicy{Tie: core.TieRandom, Seed: rng.Uint64()}, nil
	case PolicyBestResponse:
		return &BestResponsePolicy{Rate: rate}, nil
	default:
		return nil, fmt.Errorf("dist: unknown policy %q (want %s, %s or %s)",
			name, PolicyGreedy, PolicyGreedyRandom, PolicyBestResponse)
	}
}

// runRingSpec executes one spec with randomness drawn from rng.
func runRingSpec(spec RingSpec, rng *des.RNG) (RingResult, error) {
	var res RingResult
	rate, err := spec.Rate.Build()
	if err != nil {
		return res, err
	}
	g, err := core.NewGame(spec.Users, spec.Channels, spec.Radios, rate)
	if err != nil {
		return res, err
	}
	names := spec.Policies
	if len(names) == 1 {
		uniform := make([]string, spec.Users)
		for i := range uniform {
			uniform[i] = names[0]
		}
		names = uniform
	}
	if len(names) != spec.Users {
		return res, fmt.Errorf("dist: %d policies for %d users", len(names), spec.Users)
	}
	// The policies read rates through the game's table: the same values
	// as rate itself (NewGame tabulates rate.Rate), without recomputing
	// them on every DP.
	frozen := g.View().Frozen()
	policies := make([]Policy, len(names))
	for i, name := range names {
		if policies[i], err = buildPolicy(name, frozen, rng); err != nil {
			return res, err
		}
	}
	var opts []CoordinatorOption
	if spec.MaxRounds > 0 {
		opts = append(opts, WithMaxRounds(spec.MaxRounds))
	}
	local, err := RunLocal(g, policies, opts...)
	if err != nil {
		return res, err
	}
	return RingResult{
		Matrix: local.Alloc.Matrix(),
		// The coordinator's own verdict, as broadcast to every agent.
		NE:        len(local.Agents) > 0 && local.Agents[0].IsNE,
		Converged: local.Stats.Converged,
		Rounds:    local.Stats.Rounds,
		Moves:     local.Stats.Moves,
		Messages:  local.Stats.Messages,
	}, nil
}

func init() {
	engine.MustRegisterTask(RingTask, func(p ringParams, job int, rng *des.RNG) (any, error) {
		if job < 0 || job >= len(p.Specs) {
			return nil, fmt.Errorf("job %d outside %d ring specs", job, len(p.Specs))
		}
		return runRingSpec(p.Specs[job], rng)
	})
}

// RunRingBatch fans a grid of serialisable ring specs over any engine
// backend — the in-process pool, worker subprocesses, or cluster workers
// on other machines. Run r executes specs[r] with policies seeded from the
// stream engine.JobSeed(root, r), so the batch is byte-identical on every
// backend and reproduces one RunLocal call per spec, run for run.
func RunRingBatch(b engine.Backend, specs []RingSpec, opts ...engine.Option) ([]RingResult, engine.Stats, error) {
	return engine.RunTask[RingResult](b, RingTask, ringParams{Specs: specs}, len(specs), opts...)
}
