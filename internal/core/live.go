package core

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// UserID is the stable identity of a live-game participant. IDs are
// assigned sequentially from 1 on Join and never reused, so they survive
// the dense-row compaction that departures trigger.
type UserID int64

// Churn summarises the mutations applied to a LiveGame since the last
// TakeChurn: which channels' loads changed, whether any load DECREASED
// (leaves and budget cuts — the case where quiet verdicts of untouched
// users cannot be carried over; see dynamics.Requilibrate), and which users
// had their own strategy row rewritten (joiners seeded greedily, budget
// changes) and therefore must re-run the best-response DP regardless.
type Churn struct {
	// Dirty[c] is true when channel c's load changed.
	Dirty []bool
	// Suspects holds the users whose rows were edited by churn events.
	// Departed users are dropped again — their rows no longer exist.
	Suspects map[UserID]bool
	// Decreased is true when some channel's load went down.
	Decreased bool
	// Events counts the mutations folded into this record.
	Events int
}

// LiveGame is the mutable form of the channel allocation game with
// per-user budgets: users join, leave and change radio budgets while the
// derived state — the dense allocation matrix, the (budget, row) class
// index and the precomputed RateView — is kept consistent incrementally
// instead of being rebuilt per event.
//
//   - Stable IDs vs dense rows: every kernel (DP workspaces, grid walks,
//     the allocation matrix itself) indexes users 0..N-1 densely. A live
//     population is sparse in identity space, so LiveGame owns the
//     id↔row indirection; departures compact rows with a swap-with-last
//     (Alloc.RemoveRowSwap) and remap the moved user.
//   - Class index: every user's exact (budget, row) is interned into a
//     dense class id (see Classes). Join, Leave and SetBudget re-intern
//     the one row they edit; dynamics.Requilibrate re-interns each row it
//     moves. The sweep and the live verifier read a user's class with one
//     array read instead of re-hashing all N rows per event.
//   - RateView growth: the view's domain covers total load 0..Σk_i and
//     budgets up to max k_i. Joins grow the total, so the view is rebuilt
//     with doubling headroom only when the domain is outgrown; every
//     rebuild samples the same pure rate function, so table values are
//     bit-identical across generations and the domain size never shows in
//     results.
//   - Snapshots: LiveGame hands out an immutable Game per generation
//     (Frozen), sharing the already-built view; each mutation bumps the
//     generation counter, so the next Frozen builds a new snapshot.
//
// A LiveGame is not safe for concurrent use; the live server serialises
// events (mutations per event are O(|C|) plus re-equilibration).
type LiveGame struct {
	channels int
	rate     ratefn.Func

	ids     []UserID       // dense row -> stable id
	budgets []int          // dense row -> budget k_i
	rowOf   map[UserID]int // stable id -> dense row
	nextID  UserID

	alloc   *Alloc   // dense allocation; nil while the game is empty
	classes *Classes // (budget, row) class of every dense row

	view     *RateView
	viewLoad int // total-load domain the current view covers
	viewOwn  int // per-user budget domain the current view covers

	gen       uint64 // bumped by every mutation
	frozen    *Game  // per-generation immutable snapshot
	frozenGen uint64

	pending Churn
	quiet   bool // allocation known quiet (equilibrated) before pending churn
}

// NewLiveGame returns an empty live game over the given channels and rate
// function. The empty allocation is trivially an equilibrium.
func NewLiveGame(channels int, rate ratefn.Func) (*LiveGame, error) {
	if channels < 1 {
		return nil, fmt.Errorf("core: channels = %d, want >= 1", channels)
	}
	if rate == nil {
		return nil, fmt.Errorf("core: nil rate function")
	}
	lg := &LiveGame{
		channels: channels,
		rate:     rate,
		rowOf:    make(map[UserID]int),
		classes:  newClasses(channels),
		viewLoad: -1,
		viewOwn:  -1,
		quiet:    true,
	}
	lg.resetChurn()
	return lg, nil
}

// Users returns the live population size.
func (lg *LiveGame) Users() int { return len(lg.ids) }

// Channels returns |C|.
func (lg *LiveGame) Channels() int { return lg.channels }

// Rate returns the rate function.
func (lg *LiveGame) Rate() ratefn.Func { return lg.rate }

// Generation returns the mutation counter; it changes iff game state did.
func (lg *LiveGame) Generation() uint64 { return lg.gen }

// Alloc returns the LIVE dense allocation (nil while empty). It is the
// state dynamics.Requilibrate evolves in place; other callers must treat
// it as read-only.
func (lg *LiveGame) Alloc() *Alloc { return lg.alloc }

// Classes returns the LIVE (budget, row) class index of the dense rows.
// dynamics.Requilibrate re-interns every row it moves; other callers must
// treat it as read-only.
func (lg *LiveGame) Classes() *Classes { return lg.classes }

// RowOf translates a stable user id to its current dense row.
func (lg *LiveGame) RowOf(id UserID) (int, bool) {
	row, ok := lg.rowOf[id]
	return row, ok
}

// IDAt returns the stable id of dense row i.
func (lg *LiveGame) IDAt(i int) UserID { return lg.ids[i] }

// BudgetOf returns user id's radio budget.
func (lg *LiveGame) BudgetOf(id UserID) (int, bool) {
	row, ok := lg.rowOf[id]
	if !ok {
		return 0, false
	}
	return lg.budgets[row], true
}

// Budgets returns a copy of the dense budget vector.
func (lg *LiveGame) Budgets() []int { return append([]int(nil), lg.budgets...) }

// ensureView grows the rate view when the load or budget domain is
// outgrown. Doubling headroom keeps rebuilds O(log total-churn); shrinking
// never rebuilds (a superset domain reads identical table values).
func (lg *LiveGame) ensureView() {
	total, maxBudget := 0, 0
	for _, k := range lg.budgets {
		total += k
		if k > maxBudget {
			maxBudget = k
		}
	}
	if lg.view != nil && total <= lg.viewLoad && maxBudget <= lg.viewOwn {
		return
	}
	newLoad := lg.viewLoad
	if newLoad < 0 {
		newLoad = 0
	}
	for newLoad < total {
		newLoad = newLoad*2 + 8
	}
	newOwn := maxBudget
	if lg.viewOwn > newOwn {
		newOwn = lg.viewOwn
	}
	if newOwn > newLoad {
		newLoad = newOwn
	}
	lg.view = NewRateView(lg.rate, newLoad, newOwn)
	lg.viewLoad, lg.viewOwn = newLoad, newOwn
}

// resetChurn clears the pending churn record.
func (lg *LiveGame) resetChurn() {
	lg.pending = Churn{
		Dirty:    make([]bool, lg.channels),
		Suspects: make(map[UserID]bool),
	}
}

// bump invalidates generation-derived state after a mutation.
func (lg *LiveGame) bump() {
	lg.gen++
	lg.pending.Events++
}

// Join admits a new user with the given radio budget: a fresh stable id, a
// dense row appended to the allocation, and the budget's radios seeded
// greedily on least-loaded channels (the Algorithm 1 placement rule), which
// is both a good warm start and full deployment — the Lemma 1 shape every
// equilibrium needs. The seeded channels are marked dirty and the joiner
// is a re-equilibration suspect.
func (lg *LiveGame) Join(budget int) (UserID, error) {
	if budget < 1 {
		return 0, fmt.Errorf("core: join budget %d, want >= 1", budget)
	}
	if budget > lg.channels {
		return 0, fmt.Errorf("core: join budget %d exceeds %d channels", budget, lg.channels)
	}
	var row int
	if lg.alloc == nil {
		a, err := NewAlloc(1, lg.channels)
		if err != nil {
			return 0, err
		}
		lg.alloc = a
		row = 0
	} else {
		row = lg.alloc.AppendRow()
	}
	lg.nextID++
	id := lg.nextID
	lg.ids = append(lg.ids, id)
	lg.budgets = append(lg.budgets, budget)
	lg.rowOf[id] = row
	lg.ensureView()

	placer := Placer{Tie: TieFirst}
	seeded, err := placer.Place(lg.alloc.Loads(), budget)
	if err != nil {
		return 0, fmt.Errorf("core: seeding joiner %d: %w", id, err)
	}
	if err := lg.alloc.SetRow(row, seeded); err != nil {
		return 0, fmt.Errorf("core: seeding joiner %d: %w", id, err)
	}
	lg.classes.Append(budget, seeded)
	for c, v := range seeded {
		if v > 0 {
			lg.pending.Dirty[c] = true
		}
	}
	lg.pending.Suspects[id] = true
	lg.bump()
	return id, nil
}

// Leave removes a user: its radios are freed (the touched channels' loads
// decrease), the last dense row is swapped into the hole and its user
// remapped. Departures set the Decreased churn flag — lowered loads can
// make moves profitable for ANY remaining user, so no quiet verdict
// survives (see dynamics.Requilibrate).
func (lg *LiveGame) Leave(id UserID) error {
	row, ok := lg.rowOf[id]
	if !ok {
		return fmt.Errorf("core: leave: unknown user %d", id)
	}
	for c := 0; c < lg.channels; c++ {
		if lg.alloc.Radios(row, c) > 0 {
			lg.pending.Dirty[c] = true
			lg.pending.Decreased = true
		}
	}
	if err := lg.alloc.RemoveRowSwap(row); err != nil {
		return fmt.Errorf("core: leave user %d: %w", id, err)
	}
	lg.classes.RemoveSwap(row)
	last := len(lg.ids) - 1
	if row != last {
		moved := lg.ids[last]
		lg.ids[row] = moved
		lg.budgets[row] = lg.budgets[last]
		lg.rowOf[moved] = row
	}
	lg.ids = lg.ids[:last]
	lg.budgets = lg.budgets[:last]
	delete(lg.rowOf, id)
	delete(lg.pending.Suspects, id)
	if last == 0 {
		lg.alloc = nil
	}
	lg.bump()
	return nil
}

// SetBudget changes user id's radio budget in place. Growing deploys the
// extra radios greedily on least-loaded channels (dirty, loads increase);
// shrinking withdraws radios from the user's most-loaded occupied channels
// (dirty, Decreased). Either way the user's row changed, so it is a
// re-equilibration suspect. Setting the current budget is a no-op.
func (lg *LiveGame) SetBudget(id UserID, k int) error {
	row, ok := lg.rowOf[id]
	if !ok {
		return fmt.Errorf("core: budget: unknown user %d", id)
	}
	if k < 1 {
		return fmt.Errorf("core: budget %d for user %d, want >= 1", k, id)
	}
	if k > lg.channels {
		return fmt.Errorf("core: budget %d for user %d exceeds %d channels", k, id, lg.channels)
	}
	old := lg.budgets[row]
	if k == old {
		return nil
	}
	lg.budgets[row] = k
	lg.ensureView()
	a := lg.alloc
	for deployed := a.UserTotal(row); deployed < k; deployed++ {
		// One radio onto the least-loaded channel, preferring channels
		// this user does not occupy yet (the Placer rule), ties lowest
		// index.
		best, bestLoad := -1, 0
		for pass := 0; pass < 2 && best < 0; pass++ {
			for c := 0; c < lg.channels; c++ {
				if pass == 0 && a.Radios(row, c) > 0 {
					continue
				}
				if l := a.Load(c); best < 0 || l < bestLoad {
					best, bestLoad = c, l
				}
			}
		}
		if err := a.Add(row, best, 1); err != nil {
			return fmt.Errorf("core: budget grow user %d: %w", id, err)
		}
		lg.pending.Dirty[best] = true
	}
	for deployed := a.UserTotal(row); deployed > k; deployed-- {
		// Withdraw from the user's most-loaded occupied channel (the
		// radio earning the smallest share), ties lowest index.
		worst, worstLoad := -1, -1
		for c := 0; c < lg.channels; c++ {
			if a.Radios(row, c) == 0 {
				continue
			}
			if l := a.Load(c); l > worstLoad {
				worst, worstLoad = c, l
			}
		}
		if err := a.Add(row, worst, -1); err != nil {
			return fmt.Errorf("core: budget shrink user %d: %w", id, err)
		}
		lg.pending.Dirty[worst] = true
		lg.pending.Decreased = true
	}
	lg.classes.Set(row, k, a.m[row])
	lg.pending.Suspects[id] = true
	lg.bump()
	return nil
}

// Check verifies the live game's internal invariants and returns the first
// violation found, or nil:
//
//   - every channel's load equals the column sum of the allocation (the
//     class index's premise: equal rows face equal external loads);
//   - every row is non-negative and deploys at most its user's budget;
//   - stable ids and dense rows map one to one;
//   - the class index matches a fresh exact grouping of the rows: each
//     user's class stores its budget and row, users share a class iff
//     their (budget, row) agree, and member counts, intern map and free
//     list are exact;
//   - the rate view covers the total radio budget and the largest
//     per-user budget.
//
// It costs O(N·|C|) and mutates nothing; tests and fuzzers call it after
// every event.
func (lg *LiveGame) Check() error {
	n := len(lg.ids)
	if len(lg.budgets) != n || len(lg.rowOf) != n {
		return fmt.Errorf("core: %d ids, %d budgets, %d id→row entries", n, len(lg.budgets), len(lg.rowOf))
	}
	if (lg.alloc == nil) != (n == 0) {
		return fmt.Errorf("core: %d users but allocation present = %v", n, lg.alloc != nil)
	}
	for i, id := range lg.ids {
		if id < 1 || id > lg.nextID {
			return fmt.Errorf("core: row %d holds id %d outside [1, %d]", i, id, lg.nextID)
		}
		if row, ok := lg.rowOf[id]; !ok || row != i {
			return fmt.Errorf("core: row %d holds id %d, which maps to row %d (present %v)", i, id, row, ok)
		}
	}
	if n == 0 {
		return lg.classes.check(nil, nil)
	}
	a := lg.alloc
	if a.Users() != n || a.Channels() != lg.channels {
		return fmt.Errorf("core: allocation is %dx%d, game has %d users on %d channels",
			a.Users(), a.Channels(), n, lg.channels)
	}
	total, maxBudget := 0, 0
	for i, k := range lg.budgets {
		if k < 1 || k > lg.channels {
			return fmt.Errorf("core: user %d has budget %d outside [1, %d]", lg.ids[i], k, lg.channels)
		}
		deployed := 0
		for c := 0; c < lg.channels; c++ {
			if v := a.Radios(i, c); v < 0 {
				return fmt.Errorf("core: user %d has %d radios on channel %d", lg.ids[i], v, c)
			}
			deployed += a.Radios(i, c)
		}
		if deployed > k {
			return fmt.Errorf("core: user %d deploys %d radios, budget is %d", lg.ids[i], deployed, k)
		}
		total += k
		maxBudget = max(maxBudget, k)
	}
	for c := 0; c < lg.channels; c++ {
		sum := 0
		for i := 0; i < n; i++ {
			sum += a.Radios(i, c)
		}
		if a.Load(c) != sum {
			return fmt.Errorf("core: channel %d load %d, column sum %d", c, a.Load(c), sum)
		}
	}
	if err := lg.classes.check(a, lg.budgets); err != nil {
		return err
	}
	if lg.view == nil || lg.viewLoad < total || lg.viewOwn < maxBudget {
		return fmt.Errorf("core: rate view covers load %d and budget %d, game needs %d and %d",
			lg.viewLoad, lg.viewOwn, total, maxBudget)
	}
	return nil
}

// Frozen returns the immutable Game snapshot of the current generation,
// kept until the next mutation: the snapshot shares the live RateView
// (superset domains read identical values) and owns a copy of the budget
// vector. Returns nil while the game is empty.
func (lg *LiveGame) Frozen() *Game {
	if lg.Users() == 0 {
		return nil
	}
	if lg.frozen != nil && lg.frozenGen == lg.gen {
		return lg.frozen
	}
	lg.frozen = newGame(lg.channels, append([]int(nil), lg.budgets...), lg.rate, lg.view)
	lg.frozenGen = lg.gen
	return lg.frozen
}

// TakeChurn hands over the pending churn record and starts a fresh one.
// The dynamics layer calls it at the top of a re-equilibration; the record
// tells it which quiet verdicts survived the mutations.
func (lg *LiveGame) TakeChurn() Churn {
	out := lg.pending
	lg.resetChurn()
	return out
}

// PendingEvents reports how many mutations await re-equilibration.
func (lg *LiveGame) PendingEvents() int { return lg.pending.Events }

// Equilibrated reports whether the allocation was quiet (a verified
// equilibrium at the dynamics tolerance) before the pending churn — the
// warm-start soundness precondition.
func (lg *LiveGame) Equilibrated() bool { return lg.quiet }

// MarkEquilibrated records the outcome of a re-equilibration run; the
// dynamics layer calls it with the run's convergence verdict.
func (lg *LiveGame) MarkEquilibrated(quiet bool) { lg.quiet = quiet }
