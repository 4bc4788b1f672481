// Package macsim provides a slot-level simulator of CSMA/CA with binary
// exponential backoff (802.11 DCF style), the contention-based regime the
// reproduced paper builds on (§2): collisions make the total rate a
// decreasing function of the number of radios, but the long-run per-radio
// shares remain equal. (The paper's other regime, reservation-based TDMA,
// shares a constant rate exactly equally by construction, so ratefn.NewTDMA
// needs no simulator.)
//
// The simulator is a plain loop over channel slots that draws its backoffs
// from package des's seeded RNG. It is validated against package bianchi's
// analytical model; it justifies the game's fair-share utility (paper
// Eq. 3) and the CSMA/CA R(k_c) shapes of Figure 3.
package macsim

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/bianchi"
	"github.com/multiradio/chanalloc/internal/des"
)

// CSMAResult reports a saturated CSMA/CA simulation of one channel.
type CSMAResult struct {
	Stations   int
	SimTime    float64   // total simulated time, µs
	Throughput float64   // aggregate delivered payload, Mbit/s
	PerStation []float64 // per-station delivered payload, Mbit/s
	Successes  []int64   // per-station successful transmissions
	Collisions int64     // collision events on the channel
	IdleSlots  int64     // idle backoff slots observed
}

// csmaStation is the per-radio DCF state.
type csmaStation struct {
	stage   int
	backoff int
	bits    int64
	wins    int64
}

// csmaChannel simulates n saturated DCF stations sharing one channel.
type csmaChannel struct {
	params   bianchi.Params
	stations []csmaStation
	ts, tc   float64
	elapsed  float64 // accumulated simulated time, µs
	freeze   bool    // real-802.11 freeze semantics (see CSMAOptions)

	collisions int64
	idleSlots  int64

	// txBuf is reused each slot to collect the indices of transmitters.
	txBuf []int
}

// CSMAOptions tunes the slot-level simulator beyond the DCF parameters.
type CSMAOptions struct {
	// Freeze switches backoff accounting to real-802.11 semantics: counters
	// freeze during busy periods and decrement only on idle slots. The
	// default (false) is Bianchi's virtual-slot semantics, which matches
	// the analytic model's Markov chain; the gap between the two is a
	// known model-vs-protocol discrepancy that the macsim tests quantify.
	Freeze bool
}

// SimulateCSMA runs a saturated slot-level DCF simulation of n stations for
// the given number of channel slots (idle or busy periods both count as one
// "cycle"). The RNG seed fixes the run exactly.
func SimulateCSMA(p bianchi.Params, n int, cycles int64, seed uint64) (CSMAResult, error) {
	return SimulateCSMAWith(p, n, cycles, seed, CSMAOptions{})
}

// SimulateCSMAWith is SimulateCSMA with explicit simulator options.
func SimulateCSMAWith(p bianchi.Params, n int, cycles int64, seed uint64, opts CSMAOptions) (CSMAResult, error) {
	if err := p.Validate(); err != nil {
		return CSMAResult{}, err
	}
	if n < 1 {
		return CSMAResult{}, fmt.Errorf("macsim: n = %d, want >= 1", n)
	}
	if cycles < 1 {
		return CSMAResult{}, fmt.Errorf("macsim: cycles = %d, want >= 1", cycles)
	}
	rng := des.NewRNG(seed)
	ch := newCSMAChannel(p, n, rng)
	ch.freeze = opts.Freeze
	for i := int64(0); i < cycles; i++ {
		ch.cycle(rng)
	}

	res := CSMAResult{
		Stations:   n,
		SimTime:    ch.elapsed,
		Collisions: ch.collisions,
		IdleSlots:  ch.idleSlots,
		PerStation: make([]float64, n),
		Successes:  make([]int64, n),
	}
	var total float64
	for i := range ch.stations {
		mbps := float64(ch.stations[i].bits) / ch.elapsed // bits/µs == Mbit/s
		res.PerStation[i] = mbps
		res.Successes[i] = ch.stations[i].wins
		total += mbps
	}
	res.Throughput = total
	return res, nil
}

func newCSMAChannel(p bianchi.Params, n int, rng *des.RNG) *csmaChannel {
	ts, tc := p.FrameTimes()
	ch := &csmaChannel{
		params:   p,
		stations: make([]csmaStation, n),
		ts:       ts,
		tc:       tc,
		txBuf:    make([]int, 0, n),
	}
	for i := range ch.stations {
		ch.stations[i].backoff = rng.Intn(p.CWmin)
	}
	return ch
}

// cycle advances the channel by one virtual slot (idle backoff slot,
// successful transmission, or collision) and charges its duration to
// c.elapsed.
//
// Backoff counters follow Bianchi's virtual-slot semantics: every
// non-transmitting station decrements once per cycle whether the cycle was
// idle or busy. This matches the analytic model's Markov chain exactly,
// which is the point — the simulator validates the model. (Real 802.11
// freezes counters during busy periods; that shifts absolute throughput by
// a few percent without changing the shape of R(k).)
func (c *csmaChannel) cycle(rng *des.RNG) {
	c.txBuf = c.txBuf[:0]
	for i := range c.stations {
		if c.stations[i].backoff == 0 {
			c.txBuf = append(c.txBuf, i)
		}
	}
	// Non-transmitters decrement: always under virtual-slot semantics,
	// only on idle cycles under freeze semantics.
	if !c.freeze || len(c.txBuf) == 0 {
		for i := range c.stations {
			if c.stations[i].backoff > 0 {
				c.stations[i].backoff--
			}
		}
	}
	switch len(c.txBuf) {
	case 0:
		c.idleSlots++
		c.elapsed += c.params.SlotTime
	case 1:
		// Success.
		i := c.txBuf[0]
		st := &c.stations[i]
		st.bits += int64(c.params.Payload)
		st.wins++
		st.stage = 0
		st.backoff = rng.Intn(c.params.CWmin)
		c.elapsed += c.ts
	default:
		// Collision: every transmitter escalates.
		for _, i := range c.txBuf {
			st := &c.stations[i]
			if st.stage < c.params.MaxStage {
				st.stage++
			}
			st.backoff = rng.Intn(c.params.CWmin << st.stage)
		}
		c.collisions++
		c.elapsed += c.tc
	}
}
