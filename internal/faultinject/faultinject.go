// Package faultinject is a seeded adversary for the engine's network
// transport: an Injector wraps net.Listener / net.Conn and, on a schedule
// drawn from its own PRNG, drops fresh connections at accept, delays
// individual reads and writes, or severs live connections mid-frame. The
// discipline mirrors the adversarial-channel literature the repository
// reproduces (a budgeted adversary jamming a game): the adversary's power
// is bounded by an explicit event Budget, its choices are a pure function
// of the seed and the observed operation sequence, and the system under
// test must converge to byte-identical results anyway — the chaos
// conformance suite's whole assertion.
//
// Determinism caveat, stated honestly: which operation a fault lands on
// depends on goroutine interleaving, so two runs with one seed may injure
// different victims. What IS pinned is the fault mix and the budget — and
// the engine's contract makes the assertion schedule-independent: results
// must be byte-identical to the fault-free run for ANY in-budget schedule.
//
// Every injected event is counted in obs (faultinject_events_total and a
// per-kind breakdown), so a chaos run can assert that faults actually
// fired and reconcile them against Stats.Requeues and eviction counters.
//
// Flood is the adversary of a frame reader rather than of a transport: a
// peer whose frame never ends, for the tests that bound what reading it
// may allocate (Allocated).
package faultinject

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/obs"
)

var (
	mEvents = obs.NewCounter("faultinject_events_total")
	mDrops  = obs.NewCounter("faultinject_drops_total")
	mDelays = obs.NewCounter("faultinject_delays_total")
	mSevers = obs.NewCounter("faultinject_severs_total")
	mKills  = obs.NewCounter("faultinject_kills_total")
)

// Config shapes an Injector's fault mix. All probabilities are per
// opportunity: DropAccept per accepted connection, Delay and Sever per
// individual Read/Write call. Zero values inject nothing of that kind.
type Config struct {
	// Seed drives every roll the injector makes.
	Seed uint64
	// DropAccept is the probability an accepted connection is closed
	// immediately, before the peer's first frame — a SYN that went nowhere.
	DropAccept float64
	// Delay is the probability a Read/Write stalls for a seeded duration
	// in (0, MaxDelay] before proceeding.
	Delay float64
	// MaxDelay bounds injected stalls (default 10ms when Delay > 0).
	MaxDelay time.Duration
	// Sever is the probability a Read/Write kills the whole connection
	// instead: the underlying transport is closed and the call fails.
	Sever float64
	// Budget caps TOTAL injected events (drops + delays + severs) across
	// the injector's lifetime; 0 means unlimited. A budgeted adversary is
	// what the chaos suite reasons about: past the budget the injector is
	// a transparent wrapper.
	Budget int
}

// Injector injects the configured fault mix into wrapped listeners and
// connections. Safe for concurrent use; one injector's budget is shared by
// everything it wraps.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *des.RNG
	spent int
}

// New builds an Injector over the config's seed.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: des.NewRNG(cfg.Seed)}
}

// Spent reports how many faults the injector has injected so far.
func (in *Injector) Spent() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.spent
}

// fault kind tags for the roll helper.
type faultKind int

const (
	faultDrop faultKind = iota
	faultDelay
	faultSever
)

// roll decides one opportunity: whether a fault of the given kind fires
// (consuming budget) and, for delays, how long. All randomness is drawn
// under the lock so the sequence is a function of the seed and the order
// opportunities arrive.
func (in *Injector) roll(kind faultKind, p float64) (fire bool, delay time.Duration) {
	if p <= 0 {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Budget > 0 && in.spent >= in.cfg.Budget {
		return false, 0
	}
	if in.rng.Float64() >= p {
		return false, 0
	}
	in.spent++
	mEvents.Inc()
	switch kind {
	case faultDrop:
		mDrops.Inc()
	case faultDelay:
		mDelays.Inc()
		// Uniform in (0, MaxDelay]: never zero, so a "delay" is always
		// observable in principle.
		delay = time.Duration(in.rng.Uint64()%uint64(in.cfg.MaxDelay)) + 1
	case faultSever:
		mSevers.Inc()
	}
	return true, delay
}

// Listener wraps l: accepted connections are dropped at birth with
// probability DropAccept (closed immediately, the accept loop never sees
// them), and survivors are wrapped with Conn.
func (in *Injector) Listener(l net.Listener) net.Listener {
	return &faultListener{Listener: l, in: in}
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if fire, _ := l.in.roll(faultDrop, l.in.cfg.DropAccept); fire {
			obs.Emit("faultinject", "drop-accept", 0, 0, 0)
			conn.Close()
			continue
		}
		return l.in.Conn(conn), nil
	}
}

// Conn wraps c with the injector's per-operation fault mix: each Read and
// Write may stall for a seeded delay or sever the connection outright.
func (in *Injector) Conn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, in: in}
}

type faultConn struct {
	net.Conn
	in *Injector

	mu      sync.Mutex
	severed bool
}

// errSevered is returned from operations on a connection the injector
// killed; it satisfies net.Error as non-temporary so transports treat it
// exactly like a peer reset.
type errSevered struct{ op string }

func (e *errSevered) Error() string {
	return fmt.Sprintf("faultinject: connection severed during %s", e.op)
}
func (e *errSevered) Timeout() bool   { return false }
func (e *errSevered) Temporary() bool { return false }

// op runs the shared fault schedule around one Read/Write.
func (c *faultConn) op(name string) error {
	c.mu.Lock()
	severed := c.severed
	c.mu.Unlock()
	if severed {
		return &errSevered{op: name}
	}
	if fire, _ := c.in.roll(faultSever, c.in.cfg.Sever); fire {
		obs.Emit("faultinject", "sever", 0, 0, 0)
		c.mu.Lock()
		c.severed = true
		c.mu.Unlock()
		c.Conn.Close()
		return &errSevered{op: name}
	}
	if fire, d := c.in.roll(faultDelay, c.in.cfg.Delay); fire {
		obs.Emit("faultinject", "delay", int64(d), 0, 0)
		time.Sleep(d)
	}
	return nil
}

func (c *faultConn) Read(b []byte) (int, error) {
	if err := c.op("read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	if err := c.op("write"); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

// KillSchedule derives n seeded delays in [min, max] — the chaos harness's
// schedule for killing workers (or the coordinator): sleep delays[i], kill
// victim i, restart, repeat. Kills executed off this schedule should be
// recorded with CountKill so faultinject_kills_total reconciles.
func KillSchedule(seed uint64, n int, min, max time.Duration) []time.Duration {
	if n <= 0 {
		return nil
	}
	if max < min {
		min, max = max, min
	}
	rng := des.NewRNG(seed ^ 0xdead10cc)
	out := make([]time.Duration, n)
	span := uint64(max - min + 1)
	for i := range out {
		out[i] = min + time.Duration(rng.Uint64()%span)
	}
	return out
}

// CountKill records one externally-executed kill (a worker stop, a
// coordinator shutdown) in the obs counters.
func CountKill() {
	mKills.Inc()
	mEvents.Inc()
	obs.Emit("faultinject", "kill", 0, 0, 0)
}
