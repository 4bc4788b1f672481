package live

import (
	"container/heap"
	"fmt"
	"strconv"
	"strings"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/workload"
)

// ChurnSpec parameterises a synthetic churn trace: a birth–death process
// over users rendered as a protocol request stream. Arrivals are Poisson,
// lifetimes and budget-change gaps exponential — all drawn from one seeded
// SplitMix64 stream in a fixed order, so a spec maps to exactly one trace.
type ChurnSpec struct {
	// Channels bounds budgets; it is not embedded in the trace but callers
	// must serve the trace on a game with this many channels.
	Channels int
	// Initial users join at time zero before churn begins.
	Initial int
	// Events is the exact number of requests generated.
	Events int
	// MinBudget and MaxBudget bound the uniform budget draw (radios).
	MinBudget, MaxBudget int
	// Seed feeds the generator's RNG.
	Seed uint64
	// ArrivalRate is the Poisson join rate; MeanLifetime the expected
	// session length (steady population ≈ ArrivalRate·MeanLifetime);
	// BudgetRate the per-user rate of budget renegotiations (0 disables).
	ArrivalRate  float64
	MeanLifetime float64
	BudgetRate   float64
}

// Validate checks the spec is generable. The rate comparisons are written
// so that a NaN rate fails them: a NaN delay would leave the event order
// undefined. The trace holds initial+events requests and its game at most
// that many users, so a spec whose (initial+events)·channels exceeds
// workload.MaxCells, the scenario grammar's bound, is refused with an error
// wrapping workload.ErrTooLarge before anything is allocated.
func (spec ChurnSpec) Validate() error {
	if spec.Channels < 1 {
		return fmt.Errorf("live: churn channels = %d, want >= 1", spec.Channels)
	}
	if spec.Initial < 0 {
		return fmt.Errorf("live: churn initial = %d, want >= 0", spec.Initial)
	}
	if spec.Events < 1 {
		return fmt.Errorf("live: churn events = %d, want >= 1", spec.Events)
	}
	if spec.MinBudget < 1 || spec.MaxBudget < spec.MinBudget || spec.MaxBudget > spec.Channels {
		return fmt.Errorf("live: churn budgets [%d, %d] outside [1, %d]",
			spec.MinBudget, spec.MaxBudget, spec.Channels)
	}
	if !(spec.ArrivalRate > 0) {
		return fmt.Errorf("live: churn arrival rate %v, want > 0", spec.ArrivalRate)
	}
	if !(spec.MeanLifetime > 0) {
		return fmt.Errorf("live: churn mean lifetime %v, want > 0", spec.MeanLifetime)
	}
	if !(spec.BudgetRate >= 0) {
		return fmt.Errorf("live: churn budget rate %v, want >= 0", spec.BudgetRate)
	}
	// Channels >= 1 and initial, events >= 0 hold here; bounding each count
	// first keeps their sum from overflowing.
	const maxCells = workload.MaxCells
	if spec.Initial > maxCells || spec.Events > maxCells || spec.Initial+spec.Events > maxCells/spec.Channels {
		return fmt.Errorf("live: churn spec: %w: (%d initial + %d events) x %d channels exceeds %d cells",
			workload.ErrTooLarge, spec.Initial, spec.Events, spec.Channels, maxCells)
	}
	return nil
}

// DefaultChurnSpec fills the rate and budget parameters a compact spec
// string leaves open: budgets uniform over [1, min(channels, 4)], unit
// arrival rate, mean lifetime sized so the steady population matches the
// initial one, and a gentle budget renegotiation rate.
func DefaultChurnSpec(channels, initial, events int, seed uint64) ChurnSpec {
	maxBudget := channels
	if maxBudget > 4 {
		maxBudget = 4
	}
	life := float64(initial)
	if life <= 0 {
		life = 4
	}
	return ChurnSpec{
		Channels:     channels,
		Initial:      initial,
		Events:       events,
		MinBudget:    1,
		MaxBudget:    maxBudget,
		Seed:         seed,
		ArrivalRate:  1,
		MeanLifetime: life,
		BudgetRate:   0.25,
	}
}

// ParseChurnSpec parses the compact form "channels,initial,events[,seed]"
// (seed defaults to 1); the remaining parameters come from
// DefaultChurnSpec, and the result must pass Validate (so a spec over the
// workload.MaxCells bound is refused with an error wrapping
// workload.ErrTooLarge).
func ParseChurnSpec(s string) (ChurnSpec, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 && len(parts) != 4 {
		return ChurnSpec{}, fmt.Errorf("live: churn spec %q, want channels,initial,events[,seed]", s)
	}
	nums := make([]int, 3)
	for i := 0; i < 3; i++ {
		v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
		if err != nil {
			return ChurnSpec{}, fmt.Errorf("live: churn spec %q: %w", s, err)
		}
		nums[i] = v
	}
	seed := uint64(1)
	if len(parts) == 4 {
		v, err := strconv.ParseUint(strings.TrimSpace(parts[3]), 10, 64)
		if err != nil {
			return ChurnSpec{}, fmt.Errorf("live: churn spec %q: %w", s, err)
		}
		seed = v
	}
	spec := DefaultChurnSpec(nums[0], nums[1], nums[2], seed)
	if err := spec.Validate(); err != nil {
		return ChurnSpec{}, err
	}
	return spec, nil
}

// churnKind is what a pending churn event does when it fires.
type churnKind uint8

const (
	churnJoin   churnKind = iota // one of the initial users joins
	churnArrive                  // a Poisson arrival joins and schedules the next
	churnLeave                   // user id leaves
	churnBudget                  // user id renegotiates its budget, if still live
)

// churnEvent is one pending event of the birth–death process. Events fire
// in (at, seq) order; seq counts schedulings, so events due at the same
// time fire in the order they were scheduled.
type churnEvent struct {
	at   float64
	seq  uint64
	kind churnKind
	id   int64
}

// churnQueue is a container/heap min-heap of pending events.
type churnQueue []churnEvent

func (q churnQueue) Len() int { return len(q) }
func (q churnQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q churnQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *churnQueue) Push(x any)   { *q = append(*q, x.(churnEvent)) }
func (q *churnQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// GenerateTrace renders the spec as a request stream by running the
// birth–death process over a queue of pending events. Each delay is drawn
// when its event is scheduled, and a budget event for a user who has left
// fires without drawing. The generator mirrors the server's id assignment
// — sequential from 1 per join — so leave and budget requests name ids the
// serving game will recognise. The trace holds exactly spec.Events
// mutation requests.
func GenerateTrace(spec ChurnSpec) ([]Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := des.NewRNG(spec.Seed)
	randBudget := func() int {
		return spec.MinBudget + rng.Intn(spec.MaxBudget-spec.MinBudget+1)
	}
	// The initial joins, due at time zero in seq order, are already a heap.
	queue := make(churnQueue, spec.Initial)
	for i := range queue {
		queue[i] = churnEvent{seq: uint64(i), kind: churnJoin}
	}
	seq := uint64(spec.Initial)
	var now float64
	schedule := func(delay float64, kind churnKind, id int64) {
		heap.Push(&queue, churnEvent{at: now + delay, seq: seq, kind: kind, id: id})
		seq++
	}
	schedule(rng.ExpFloat64()/spec.ArrivalRate, churnArrive, 0)

	trace := make([]Request, 0, spec.Events)
	live := make(map[int64]bool)
	var nextID int64
	// Every arrival schedules the next, so the queue never drains.
	for len(trace) < spec.Events {
		ev := heap.Pop(&queue).(churnEvent)
		now = ev.at
		switch ev.kind {
		case churnJoin, churnArrive:
			nextID++
			live[nextID] = true
			trace = append(trace, Request{Op: "join", Budget: randBudget()})
			schedule(rng.ExpFloat64()*spec.MeanLifetime, churnLeave, nextID)
			if spec.BudgetRate > 0 {
				schedule(rng.ExpFloat64()/spec.BudgetRate, churnBudget, nextID)
			}
			if ev.kind == churnArrive {
				schedule(rng.ExpFloat64()/spec.ArrivalRate, churnArrive, 0)
			}
		case churnLeave:
			delete(live, ev.id)
			trace = append(trace, Request{Op: "leave", ID: ev.id})
		case churnBudget:
			if live[ev.id] {
				trace = append(trace, Request{Op: "budget", ID: ev.id, Budget: randBudget()})
				schedule(rng.ExpFloat64()/spec.BudgetRate, churnBudget, ev.id)
			}
		}
	}
	return trace, nil
}
