package bianchi

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

func TestParamsValidate(t *testing.T) {
	if err := Default80211b().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CWmin = 0 },
		func(p *Params) { p.MaxStage = -1 },
		func(p *Params) { p.SlotTime = 0 },
		func(p *Params) { p.SIFS = -1 },
		func(p *Params) { p.DIFS = -1 },
		func(p *Params) { p.PHYHeader = -1 },
		func(p *Params) { p.MACHeader = -1 },
		func(p *Params) { p.ACKBits = -1 },
		func(p *Params) { p.Payload = 0 },
		func(p *Params) { p.DataRate = 0 },
		func(p *Params) { p.BasicRate = 0 },
	}
	for i, mutate := range bad {
		p := Default80211b()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate params", i)
		}
	}
}

func TestSolveSingleStation(t *testing.T) {
	r, err := Solve(Default80211b(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 0 {
		t.Errorf("collision probability with one station = %v, want 0", r.P)
	}
	wantTau := 2.0 / 33.0
	if math.Abs(r.Tau-wantTau) > 1e-12 {
		t.Errorf("tau = %v, want %v", r.Tau, wantTau)
	}
	if r.Throughput <= 0 || r.Throughput >= 11 {
		t.Errorf("throughput = %v, want in (0, 11)", r.Throughput)
	}
}

func TestSolveFixedPointConsistency(t *testing.T) {
	p := Default80211b()
	for _, n := range []int{2, 3, 5, 10, 20, 50} {
		r, err := Solve(p, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Verify both fixed-point equations hold at the solution.
		wantP := 1 - math.Pow(1-r.Tau, float64(n-1))
		if math.Abs(r.P-wantP) > 1e-9 {
			t.Errorf("n=%d: p = %v, fixed point wants %v", n, r.P, wantP)
		}
		wantTau := tauOfP(r.P, p.CWmin, p.MaxStage)
		if math.Abs(r.Tau-wantTau) > 1e-9 {
			t.Errorf("n=%d: tau = %v, fixed point wants %v", n, r.Tau, wantTau)
		}
	}
}

func TestSolveThroughputDecreasesForLargeN(t *testing.T) {
	// Raw Bianchi throughput may wiggle upward between n=2 and n=3 for some
	// parameter sets (this is why PracticalRate applies a monotone
	// envelope); from n=3 on it must decrease.
	p := Default80211b()
	prev := math.Inf(1)
	for n := 3; n <= 60; n++ {
		r, err := Solve(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput > prev+1e-9 {
			t.Errorf("throughput increased from n=%d to n=%d: %v -> %v", n-1, n, prev, r.Throughput)
		}
		prev = r.Throughput
	}
}

func TestSolveCollisionProbabilityIncreases(t *testing.T) {
	p := Default80211b()
	prev := -1.0
	for n := 1; n <= 40; n++ {
		r, err := Solve(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.P < prev-1e-9 {
			t.Errorf("collision probability decreased at n=%d: %v -> %v", n, prev, r.P)
		}
		if r.P < 0 || r.P > 1 {
			t.Errorf("collision probability out of range at n=%d: %v", n, r.P)
		}
		prev = r.P
	}
}

func TestSolveKnownBallpark(t *testing.T) {
	// Bianchi's published basic-access results for his 1 Mbit/s parameter
	// set (JSAC 2000, Fig. 6) sit in the 0.65-0.87 efficiency band for
	// moderate n. Check we are in that regime, i.e. the model is wired
	// correctly (not off by a header or a rate).
	p := Bianchi1Mbps()
	r, err := Solve(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency < 0.65 || r.Efficiency > 0.87 {
		t.Errorf("efficiency at n=10 = %v, want within [0.65, 0.87]", r.Efficiency)
	}
	// The 802.11b 11 Mbit/s PHY pays its long preamble at 1 Mbit/s, so
	// efficiency is much lower but still positive.
	r11, err := Solve(Default80211b(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if r11.Efficiency < 0.3 || r11.Efficiency > 0.7 {
		t.Errorf("802.11b efficiency at n=10 = %v, want within [0.3, 0.7]", r11.Efficiency)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(Default80211b(), 0); err == nil {
		t.Error("n=0 should error")
	}
	var bad Params
	if _, err := Solve(bad, 2); err == nil {
		t.Error("invalid params should error")
	}
}

func TestTauOfPSingularity(t *testing.T) {
	// tauOfP must be continuous at p = 1/2 (removable singularity).
	w, m := 32, 5
	at := tauOfP(0.5, w, m)
	near := tauOfP(0.5+1e-9, w, m)
	if math.Abs(at-near) > 1e-6 {
		t.Errorf("tauOfP discontinuous at 0.5: %v vs %v", at, near)
	}
	near = tauOfP(0.5-1e-9, w, m)
	if math.Abs(at-near) > 1e-6 {
		t.Errorf("tauOfP discontinuous at 0.5 (below): %v vs %v", at, near)
	}
}

func TestSolveOptimalNearConstant(t *testing.T) {
	p := Default80211b()
	r1, err := SolveOptimal(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveOptimal(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Throughput <= 0 || r2.Throughput <= 0 {
		t.Fatalf("non-positive optimal throughput: %v, %v", r1.Throughput, r2.Throughput)
	}
	rel := math.Abs(r1.Throughput-r2.Throughput) / r1.Throughput
	if rel > 0.05 {
		t.Errorf("optimal throughput varies %.1f%% between n=2 and n=40; want < 5%%", rel*100)
	}
}

func TestOptimalBeatsPracticalAtHighN(t *testing.T) {
	p := Default80211b()
	prac, err := Solve(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SolveOptimal(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Throughput <= prac.Throughput {
		t.Errorf("optimal backoff (%v) should beat practical (%v) at n=30",
			opt.Throughput, prac.Throughput)
	}
}

func TestSolveOptimalErrors(t *testing.T) {
	if _, err := SolveOptimal(Default80211b(), 0); err == nil {
		t.Error("n=0 should error")
	}
	var bad Params
	if _, err := SolveOptimal(bad, 2); err == nil {
		t.Error("invalid params should error")
	}
}

func TestPracticalRateContract(t *testing.T) {
	f, err := PracticalRate(Default80211b())
	if err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(f, 40); err != nil {
		t.Fatalf("practical rate violates contract: %v", err)
	}
	if f.Rate(1) <= f.Rate(40) {
		t.Errorf("practical rate should decrease: R(1)=%v R(40)=%v", f.Rate(1), f.Rate(40))
	}
}

func TestOptimalRateContract(t *testing.T) {
	f, err := OptimalRate(Default80211b())
	if err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(f, 40); err != nil {
		t.Fatalf("optimal rate violates contract: %v", err)
	}
	// Near-constant: less than 10% total sag across the envelope.
	if f.Rate(40) < 0.9*f.Rate(2) {
		t.Errorf("optimal rate sags too much: R(2)=%v R(40)=%v", f.Rate(2), f.Rate(40))
	}
}

func TestRateAdaptersReject(t *testing.T) {
	var bad Params
	if _, err := PracticalRate(bad); err == nil {
		t.Error("PracticalRate should reject invalid params")
	}
	if _, err := OptimalRate(bad); err == nil {
		t.Error("OptimalRate should reject invalid params")
	}
}

func TestFigure3Shape(t *testing.T) {
	// The three curves of the paper's Figure 3, evaluated at k=1..20:
	// TDMA constant, optimal CSMA/CA near-constant below TDMA, practical
	// CSMA/CA decreasing below optimal for large k.
	p := Default80211b()
	tdma := ratefn.NewTDMA(p.DataRate)
	opt, err := OptimalRate(p)
	if err != nil {
		t.Fatal(err)
	}
	prac, err := PracticalRate(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 20; k++ {
		if opt.Rate(k) > tdma.Rate(k) {
			t.Errorf("k=%d: optimal CSMA (%v) above TDMA (%v)", k, opt.Rate(k), tdma.Rate(k))
		}
	}
	for k := 10; k <= 20; k++ {
		if prac.Rate(k) > opt.Rate(k) {
			t.Errorf("k=%d: practical CSMA (%v) above optimal (%v)", k, prac.Rate(k), opt.Rate(k))
		}
	}
	if prac.Rate(20) >= prac.Rate(1) {
		t.Errorf("practical CSMA should strictly decrease: R(1)=%v R(20)=%v",
			prac.Rate(1), prac.Rate(20))
	}
}
