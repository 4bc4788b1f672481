// Package bianchi implements Bianchi's analytical model of the IEEE 802.11
// distributed coordination function (DCF) under saturation
// (G. Bianchi, "Performance Analysis of the IEEE 802.11 Distributed
// Coordination Function", IEEE JSAC 18(3), 2000).
//
// The paper reproduced by this repository (Félegyházi et al., ICDCS 2006)
// cites Bianchi's result to justify the shape of the channel rate function
// R(k_c) in its Figure 3:
//
//   - reservation TDMA            -> constant R(k_c)
//   - CSMA/CA, optimal backoff    -> (near-)constant R(k_c)
//   - CSMA/CA, practical backoff  -> decreasing R(k_c) due to collisions
//
// This package computes the saturation throughput S(n) for n contending
// stations by solving the standard two-equation fixed point
//
//	tau = 2(1-2p) / ((1-2p)(W+1) + p*W*(1-(2p)^m))
//	p   = 1 - (1-tau)^(n-1)
//
// and feeding it into Bianchi's normalised-throughput expression. The
// "optimal backoff" variant replaces the binary exponential backoff with the
// approximately optimal transmission probability tau*(n) that maximises
// throughput, which makes S(n) essentially independent of n.
package bianchi

import (
	"errors"
	"fmt"
	"math"
)

// AccessMode selects the DCF access mechanism.
type AccessMode int

// Access mechanisms. Basic is the two-way DATA/ACK handshake; RTSCTS
// reserves the channel with a short RTS/CTS exchange first, which shrinks
// the collision cost to the RTS duration and makes throughput far less
// sensitive to the number of stations (Bianchi §III-B).
const (
	Basic AccessMode = iota
	RTSCTS
)

// String implements fmt.Stringer.
func (m AccessMode) String() string {
	switch m {
	case Basic:
		return "basic"
	case RTSCTS:
		return "rts/cts"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// Params collects the DCF and PHY parameters of the model. All durations are
// in microseconds, sizes in bits, and rates in Mbit/s.
type Params struct {
	// CWmin is the minimum contention window W (number of slots); 802.11b
	// DSSS uses 32.
	CWmin int
	// MaxStage is the maximum backoff stage m, so CWmax = CWmin * 2^m;
	// 802.11b DSSS uses 5.
	MaxStage int
	// SlotTime is the backoff slot duration sigma, in µs.
	SlotTime float64
	// SIFS and DIFS are the interframe spaces in µs.
	SIFS float64
	DIFS float64
	// PropDelay is the propagation delay in µs.
	PropDelay float64
	// PHYHeader and MACHeader are header transmission times in µs and bits
	// respectively: the PHY header is sent at the basic rate (time given
	// directly), the MAC header and payload at DataRate.
	PHYHeader float64 // µs
	MACHeader int     // bits
	ACKBits   int     // bits (ACK frame body, sent at BasicRate)
	// Payload is the MAC payload size in bits.
	Payload int
	// DataRate and BasicRate are channel bitrates in Mbit/s.
	DataRate  float64
	BasicRate float64
	// Mode selects basic access (zero value) or RTS/CTS.
	Mode AccessMode
	// RTSBits and CTSBits are the control frame sizes, sent at BasicRate;
	// required (> 0) when Mode is RTSCTS, ignored otherwise.
	RTSBits int
	CTSBits int
}

// WithRTSCTS returns a copy of p using the RTS/CTS mechanism with the
// standard 802.11 control frame sizes (RTS 160 bits, CTS 112 bits).
func (p Params) WithRTSCTS() Params {
	p.Mode = RTSCTS
	p.RTSBits = 160
	p.CTSBits = 112
	return p
}

// Default80211b returns the classic 802.11b DSSS parameter set used in
// Bianchi's paper-style evaluations, with an 8184-bit payload.
func Default80211b() Params {
	return Params{
		CWmin:     32,
		MaxStage:  5,
		SlotTime:  20,
		SIFS:      10,
		DIFS:      50,
		PropDelay: 1,
		PHYHeader: 192, // long PLCP preamble+header at 1 Mbit/s
		MACHeader: 272,
		ACKBits:   112,
		Payload:   8184,
		DataRate:  11,
		BasicRate: 1,
	}
}

// Bianchi1Mbps returns the parameter set of Bianchi's original JSAC paper
// (Table II): a 1 Mbit/s channel where headers and payload share one rate.
// Useful for validating the model against the published ~0.8 efficiency
// numbers.
func Bianchi1Mbps() Params {
	return Params{
		CWmin:     32,
		MaxStage:  5,
		SlotTime:  50,
		SIFS:      28,
		DIFS:      128,
		PropDelay: 1,
		PHYHeader: 128, // 128 bits at 1 Mbit/s
		MACHeader: 272,
		ACKBits:   112,
		Payload:   8184,
		DataRate:  1,
		BasicRate: 1,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.CWmin < 1:
		return fmt.Errorf("bianchi: CWmin = %d, want >= 1", p.CWmin)
	case p.MaxStage < 0:
		return fmt.Errorf("bianchi: MaxStage = %d, want >= 0", p.MaxStage)
	case p.SlotTime <= 0:
		return fmt.Errorf("bianchi: SlotTime = %v, want > 0", p.SlotTime)
	case p.SIFS < 0 || p.DIFS < 0 || p.PropDelay < 0 || p.PHYHeader < 0:
		return errors.New("bianchi: negative interframe timing")
	case p.MACHeader < 0 || p.ACKBits < 0:
		return errors.New("bianchi: negative header size")
	case p.Payload <= 0:
		return fmt.Errorf("bianchi: Payload = %d, want > 0", p.Payload)
	case p.DataRate <= 0 || p.BasicRate <= 0:
		return errors.New("bianchi: non-positive bitrate")
	case p.Mode != Basic && p.Mode != RTSCTS:
		return fmt.Errorf("bianchi: unknown access mode %d", int(p.Mode))
	case p.Mode == RTSCTS && (p.RTSBits <= 0 || p.CTSBits <= 0):
		return fmt.Errorf("bianchi: RTS/CTS mode requires positive RTSBits/CTSBits, got %d/%d", p.RTSBits, p.CTSBits)
	case p.RTSBits < 0 || p.CTSBits < 0:
		return errors.New("bianchi: negative control frame size")
	}
	return nil
}

// FrameTimes returns (Ts, Tc): the mean durations in µs of a successful
// transmission and of a collision for the configured access mechanism.
func (p Params) FrameTimes() (ts, tc float64) {
	header := p.PHYHeader + float64(p.MACHeader)/p.DataRate
	payload := float64(p.Payload) / p.DataRate
	ack := p.PHYHeader + float64(p.ACKBits)/p.BasicRate
	if p.Mode == RTSCTS {
		rts := p.PHYHeader + float64(p.RTSBits)/p.BasicRate
		cts := p.PHYHeader + float64(p.CTSBits)/p.BasicRate
		ts = rts + p.SIFS + p.PropDelay + cts + p.SIFS + p.PropDelay +
			header + payload + p.SIFS + p.PropDelay + ack + p.DIFS + p.PropDelay
		// Colliding RTS frames hold the channel only for the RTS itself.
		tc = rts + p.DIFS + p.PropDelay
		return ts, tc
	}
	ts = header + payload + p.SIFS + p.PropDelay + ack + p.DIFS + p.PropDelay
	// In a collision the channel is held for the longest colliding frame;
	// with equal frame sizes that is header+payload, then DIFS.
	tc = header + payload + p.DIFS + p.PropDelay
	return ts, tc
}

// Result reports the solved operating point for n stations.
type Result struct {
	N          int     // number of contending stations
	Tau        float64 // per-slot transmission probability
	P          float64 // conditional collision probability
	Throughput float64 // aggregate MAC throughput in Mbit/s
	Efficiency float64 // Throughput / DataRate
}

// tauOfP is the backoff-chain equation: the stationary transmission
// probability given conditional collision probability p.
func tauOfP(p float64, w, m int) float64 {
	wf := float64(w)
	if p == 0.5 {
		// The closed form has a removable singularity at p = 1/2:
		// tau = 2 / (W + 1 + W*m/2) after taking the limit.
		return 2 / (wf + 1 + wf*float64(m)/2)
	}
	num := 2 * (1 - 2*p)
	den := (1-2*p)*(wf+1) + p*wf*(1-math.Pow(2*p, float64(m)))
	return num / den
}

// Solve computes the DCF operating point for n saturated stations using
// bisection on tau. It returns an error for invalid parameters or n < 1.
func Solve(p Params, n int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("bianchi: n = %d, want >= 1", n)
	}
	if n == 1 {
		// No collisions: p = 0, tau = 2/(W+1).
		tau := tauOfP(0, p.CWmin, p.MaxStage)
		r := p.throughputAt(1, tau, 0)
		return r, nil
	}
	// g(tau) = tauOfP(collision(tau)) - tau is strictly decreasing in tau:
	// bisection over (0, 1).
	collision := func(tau float64) float64 {
		return 1 - math.Pow(1-tau, float64(n-1))
	}
	g := func(tau float64) float64 {
		return tauOfP(collision(tau), p.CWmin, p.MaxStage) - tau
	}
	lo, hi := 1e-12, 1-1e-12
	gLo, gHi := g(lo), g(hi)
	if gLo < 0 || gHi > 0 {
		return Result{}, fmt.Errorf("bianchi: fixed point not bracketed for n=%d (g(lo)=%v g(hi)=%v)", n, gLo, gHi)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	tau := (lo + hi) / 2
	return p.throughputAt(n, tau, collision(tau)), nil
}

// throughputAt evaluates Bianchi's throughput expression at the operating
// point (tau, p) for n stations.
func (p Params) throughputAt(n int, tau, pColl float64) Result {
	ts, tc := p.FrameTimes()
	pTr := 1 - math.Pow(1-tau, float64(n))
	var pS float64
	if pTr > 0 {
		pS = float64(n) * tau * math.Pow(1-tau, float64(n-1)) / pTr
	}
	// Expected slot duration (µs).
	slot := (1-pTr)*p.SlotTime + pTr*pS*ts + pTr*(1-pS)*tc
	var s float64
	if slot > 0 {
		// Payload bits delivered per µs = Mbit/s.
		s = pS * pTr * float64(p.Payload) / slot
	}
	return Result{
		N:          n,
		Tau:        tau,
		P:          pColl,
		Throughput: s,
		Efficiency: s / p.DataRate,
	}
}

// SolveOptimal computes the operating point when every station uses the
// (approximately) throughput-optimal transmission probability
//
//	tau*(n) ≈ 1 / (n * sqrt(Tc' / 2))
//
// where Tc' = Tc/sigma is the collision duration in slot units (Bianchi
// §IV). With this backoff policy the saturation throughput is essentially
// independent of n, which is the "CSMA/CA optimal backoff" curve of the
// reproduced paper's Figure 3.
func SolveOptimal(p Params, n int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("bianchi: n = %d, want >= 1", n)
	}
	_, tc := p.FrameTimes()
	tcSlots := tc / p.SlotTime
	tau := 1 / (float64(n) * math.Sqrt(tcSlots/2))
	if tau > 1 {
		tau = 1
	}
	pColl := 1 - math.Pow(1-tau, float64(n-1))
	return p.throughputAt(n, tau, pColl), nil
}
