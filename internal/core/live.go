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
}

// LiveGame is the mutable form of the channel allocation game with
// per-user budgets: users join, leave and change radio budgets while the
// derived state — the dense allocation matrix, the (budget, row) class
// index and the precomputed RateView — is kept consistent incrementally
// instead of being rebuilt per event.
//
//   - One Game: LiveGame owns a single *Game whose budget vector, radio
//     total and rate view the mutators edit in place; Frozen hands out
//     that game, valid until the next mutation.
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
//     with doubling headroom only when a join or budget change outgrows
//     the domain; every rebuild samples the same pure rate function, so
//     table values are bit-identical across rebuilds and the domain size
//     never shows in results.
//   - Legality stamp: legalAt is the allocation generation (Alloc.gen)
//     at which every row was last known to be within its user's budget.
//     Join and SetBudget check the one row they write in O(|C|), Leave
//     moves the last row into the hole together with its budget, and
//     dynamics.Requilibrate vouches for its sweep's rows (see
//     ExtendLegal); each moves the stamp to the new generation, but only
//     from a stamp that was current before its write. Any other write,
//     such as one through the read-only Alloc, bumps the generation
//     without the stamp, so CheckAlloc is O(1) after vouched writes and
//     the full Game.CheckAlloc scan after anything else.
//
// A LiveGame is not safe for concurrent use; the live server serialises
// events (mutations per event are O(|C|) plus re-equilibration).
type LiveGame struct {
	g *Game // dense row -> budget k_i, their total and the rate view

	ids    []UserID       // dense row -> stable id
	rowOf  map[UserID]int // stable id -> dense row
	nextID UserID

	alloc   *Alloc   // dense allocation; nil while the game is empty
	classes *Classes // (budget, row) class of every dense row
	legalAt uint64   // alloc.gen at which every row was last known legal

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
		g:       &Game{channels: channels, rate: rate},
		rowOf:   make(map[UserID]int),
		classes: newClasses(channels),
		quiet:   true,
	}
	lg.resetChurn()
	return lg, nil
}

// Users returns the live population size.
func (lg *LiveGame) Users() int { return len(lg.ids) }

// Channels returns |C|.
func (lg *LiveGame) Channels() int { return lg.g.channels }

// Rate returns the rate function.
func (lg *LiveGame) Rate() ratefn.Func { return lg.g.rate }

// Alloc returns the LIVE dense allocation (nil while empty). It is the
// state dynamics.Requilibrate evolves in place; other callers must treat
// it as read-only. A write through it anyway leaves the legality stamp
// behind, so the next CheckAlloc scans every row.
func (lg *LiveGame) Alloc() *Alloc { return lg.alloc }

// CheckAlloc verifies that every row of the live allocation deploys at
// most its user's budget, the test of Game.CheckAlloc, and returns the
// allocation generation it vouches for. While the legality stamp is at
// the allocation's generation, every write since the last full pass was
// one this game or ExtendLegal's caller checked, and it costs O(1);
// otherwise it runs the full Game.CheckAlloc and, on success, moves the
// stamp to the current generation. The empty game is trivially legal.
func (lg *LiveGame) CheckAlloc() (uint64, error) {
	a := lg.alloc
	if a == nil {
		return 0, nil
	}
	if lg.legalAt != a.gen {
		if err := lg.g.CheckAlloc(a); err != nil {
			return 0, err
		}
		lg.legalAt = a.gen
	}
	return a.gen, nil
}

// ExtendLegal moves the legality stamp from generation from to the
// allocation's current one: the caller asserts that every write to the
// live allocation since from set a row that passed Game.CheckRow for its
// user. dynamics.Requilibrate calls it after a successful sweep, with the
// generation CheckAlloc returned before it. A stamp that is no longer at
// from stays where it is.
func (lg *LiveGame) ExtendLegal(from uint64) {
	if lg.alloc != nil && lg.legalAt == from {
		lg.legalAt = lg.alloc.gen
	}
}

// legal reports whether the legality stamp is current: every row was
// known to be within its budget at the last write. The empty game is.
func (lg *LiveGame) legal() bool { return lg.alloc == nil || lg.legalAt == lg.alloc.gen }

// vouchRow moves the stamp to the current generation when it was current
// before the caller's write (wasLegal) and the one row the write set
// passes Game.CheckRow.
func (lg *LiveGame) vouchRow(wasLegal bool, row int) {
	if wasLegal && lg.g.CheckRow(row, lg.alloc.m[row]) == nil {
		lg.legalAt = lg.alloc.gen
	}
}

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
	return lg.g.budgets[row], true
}

// Budgets returns a copy of the dense budget vector.
func (lg *LiveGame) Budgets() []int { return lg.g.Budgets() }

// ensureView grows the rate view when the running radio total or a budget
// k just set outgrows its domain. Every other budget was covered when it
// was set and the domain never shrinks, so k is the only budget to check.
// Doubling headroom keeps rebuilds O(log total-churn); shrinking never
// rebuilds (a superset domain reads identical table values).
func (lg *LiveGame) ensureView(k int) {
	g := lg.g
	load, own := -1, -1
	if g.view != nil {
		load, own = g.view.domain()
		if g.total <= load && k <= own {
			return
		}
	}
	newLoad := max(load, 0)
	for newLoad < g.total {
		newLoad = newLoad*2 + 8
	}
	newOwn := max(k, own)
	newLoad = max(newLoad, newOwn)
	g.view = NewRateView(g.rate, newLoad, newOwn)
}

// resetChurn clears the pending churn record.
func (lg *LiveGame) resetChurn() {
	lg.pending = Churn{
		Dirty:    make([]bool, lg.g.channels),
		Suspects: make(map[UserID]bool),
	}
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
	if budget > lg.g.channels {
		return 0, fmt.Errorf("core: join budget %d exceeds %d channels", budget, lg.g.channels)
	}
	wasLegal := lg.legal()
	var row int
	if lg.alloc == nil {
		a, err := NewAlloc(1, lg.g.channels)
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
	lg.g.budgets = append(lg.g.budgets, budget)
	lg.g.total += budget
	lg.rowOf[id] = row
	lg.ensureView(budget)

	placer := Placer{Tie: TieFirst}
	seeded, err := placer.Place(lg.alloc.load, budget)
	if err != nil {
		return 0, fmt.Errorf("core: seeding joiner %d: %w", id, err)
	}
	if err := lg.alloc.SetRow(row, seeded); err != nil {
		return 0, fmt.Errorf("core: seeding joiner %d: %w", id, err)
	}
	lg.vouchRow(wasLegal, row)
	lg.classes.Append(budget, seeded)
	for c, v := range seeded {
		if v > 0 {
			lg.pending.Dirty[c] = true
		}
	}
	lg.pending.Suspects[id] = true
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
	wasLegal := lg.legal()
	for c := 0; c < lg.g.channels; c++ {
		if lg.alloc.Radios(row, c) > 0 {
			lg.pending.Dirty[c] = true
			lg.pending.Decreased = true
		}
	}
	if err := lg.alloc.RemoveRowSwap(row); err != nil {
		return fmt.Errorf("core: leave user %d: %w", id, err)
	}
	if wasLegal {
		// The last row moved into the hole with its budget: every
		// remaining (row, budget) pair is one that was legal.
		lg.legalAt = lg.alloc.gen
	}
	lg.classes.RemoveSwap(row)
	g := lg.g
	g.total -= g.budgets[row]
	last := len(lg.ids) - 1
	if row != last {
		moved := lg.ids[last]
		lg.ids[row] = moved
		g.budgets[row] = g.budgets[last]
		lg.rowOf[moved] = row
	}
	lg.ids = lg.ids[:last]
	g.budgets = g.budgets[:last]
	delete(lg.rowOf, id)
	delete(lg.pending.Suspects, id)
	if last == 0 {
		lg.alloc = nil
	}
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
	g := lg.g
	if k > g.channels {
		return fmt.Errorf("core: budget %d for user %d exceeds %d channels", k, id, g.channels)
	}
	old := g.budgets[row]
	if k == old {
		return nil
	}
	wasLegal := lg.legal()
	g.budgets[row] = k
	g.total += k - old
	lg.ensureView(k)
	a := lg.alloc
	for deployed := a.UserTotal(row); deployed < k; deployed++ {
		// One radio onto the least-loaded channel, preferring channels
		// this user does not occupy yet (the Placer rule), ties lowest
		// index.
		best, bestLoad := -1, 0
		for pass := 0; pass < 2 && best < 0; pass++ {
			for c := 0; c < g.channels; c++ {
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
		for c := 0; c < g.channels; c++ {
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
	lg.vouchRow(wasLegal, row)
	lg.classes.Set(row, k, a.m[row])
	lg.pending.Suspects[id] = true
	return nil
}

// Check verifies the live game's internal invariants and returns the first
// violation found, or nil:
//
//   - every channel's load equals the column sum of the allocation (the
//     class index's premise: equal rows face equal external loads);
//   - every row is non-negative and deploys at most its user's budget;
//   - a current legality stamp vouches for an allocation that a fresh
//     Game.CheckAlloc accepts;
//   - stable ids and dense rows map one to one;
//   - the class index matches a fresh exact grouping of the rows: each
//     user's class stores its budget and row, users share a class iff
//     their (budget, row) agree, and member counts, intern map and free
//     list are exact;
//   - the game's running radio total equals a fresh sum over the budgets;
//   - the rate view covers that total and the largest per-user budget.
//
// It costs O(N·|C|) and mutates nothing; tests and fuzzers call it after
// every event.
func (lg *LiveGame) Check() error {
	g := lg.g
	n := len(lg.ids)
	if len(g.budgets) != n || len(lg.rowOf) != n {
		return fmt.Errorf("core: %d ids, %d budgets, %d id→row entries", n, len(g.budgets), len(lg.rowOf))
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
		if g.total != 0 {
			return fmt.Errorf("core: empty game has a running radio total of %d", g.total)
		}
		return lg.classes.check(nil, nil)
	}
	a := lg.alloc
	if a.Users() != n || a.Channels() != g.channels {
		return fmt.Errorf("core: allocation is %dx%d, game has %d users on %d channels",
			a.Users(), a.Channels(), n, g.channels)
	}
	if lg.legalAt == a.gen {
		if err := g.CheckAlloc(a); err != nil {
			return fmt.Errorf("core: legality stamp at generation %d vouches for an illegal allocation: %w", a.gen, err)
		}
	}
	total, maxBudget := 0, 0
	for i, k := range g.budgets {
		if k < 1 || k > g.channels {
			return fmt.Errorf("core: user %d has budget %d outside [1, %d]", lg.ids[i], k, g.channels)
		}
		deployed := 0
		for c := 0; c < g.channels; c++ {
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
	for c := 0; c < g.channels; c++ {
		sum := 0
		for i := 0; i < n; i++ {
			sum += a.Radios(i, c)
		}
		if a.Load(c) != sum {
			return fmt.Errorf("core: channel %d load %d, column sum %d", c, a.Load(c), sum)
		}
	}
	if err := lg.classes.check(a, g.budgets); err != nil {
		return err
	}
	if g.total != total {
		return fmt.Errorf("core: running radio total %d, budgets sum to %d", g.total, total)
	}
	if g.view == nil {
		return fmt.Errorf("core: %d users but no rate view", n)
	}
	if load, own := g.view.domain(); load < total || own < maxBudget {
		return fmt.Errorf("core: rate view covers load %d and budget %d, game needs %d and %d",
			load, own, total, maxBudget)
	}
	return nil
}

// Frozen returns the live population as a Game, without copying: the game
// is LiveGame's own, valid until the next mutation (a join, leave or
// budget change edits its budgets, radio total and rate view in place).
// Its view may cover a larger domain than a fresh game's; superset domains
// read identical values. Returns nil while the game is empty.
func (lg *LiveGame) Frozen() *Game {
	if lg.Users() == 0 {
		return nil
	}
	return lg.g
}

// TakeChurn hands over the pending churn record and starts a fresh one.
// The dynamics layer calls it at the top of a re-equilibration; the record
// tells it which quiet verdicts survived the mutations.
func (lg *LiveGame) TakeChurn() Churn {
	out := lg.pending
	lg.resetChurn()
	return out
}

// Equilibrated reports whether the allocation was quiet (a verified
// equilibrium at the dynamics tolerance) before the pending churn — the
// warm-start soundness precondition.
func (lg *LiveGame) Equilibrated() bool { return lg.quiet }

// MarkEquilibrated records the outcome of a re-equilibration run; the
// dynamics layer calls it with the run's convergence verdict.
func (lg *LiveGame) MarkEquilibrated(quiet bool) { lg.quiet = quiet }
