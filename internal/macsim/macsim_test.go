package macsim

import (
	"math"
	"reflect"
	"testing"

	"github.com/multiradio/chanalloc/internal/bianchi"
	"github.com/multiradio/chanalloc/internal/ratefn"
	"github.com/multiradio/chanalloc/internal/stats"
)

const simCycles = 150000

func TestSimulateCSMAMatchesBianchi(t *testing.T) {
	// The slot-level simulator and the analytical model describe the same
	// protocol; their throughputs must agree within a few percent.
	p := bianchi.Default80211b()
	for _, n := range []int{1, 2, 5, 10} {
		res, err := SimulateCSMA(p, n, simCycles, 1234)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		model, err := bianchi.Solve(p, n)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(res.Throughput-model.Throughput) / model.Throughput
		if rel > 0.05 {
			t.Errorf("n=%d: sim %.4f vs model %.4f Mbit/s (%.1f%% off)",
				n, res.Throughput, model.Throughput, rel*100)
		}
	}
}

func TestSimulateCSMAFairShare(t *testing.T) {
	// Paper §2 assumes the channel rate is shared equally among radios.
	// Long-run per-station throughputs must have Jain index ≈ 1.
	p := bianchi.Default80211b()
	for _, n := range []int{2, 4, 8} {
		res, err := SimulateCSMA(p, n, simCycles, 99)
		if err != nil {
			t.Fatal(err)
		}
		jain, err := stats.JainIndex(res.PerStation)
		if err != nil {
			t.Fatal(err)
		}
		if jain < 0.99 {
			t.Errorf("n=%d: Jain index %.4f, want >= 0.99 (shares %v)", n, jain, res.PerStation)
		}
	}
}

func TestSimulateCSMASingleStationNoCollisions(t *testing.T) {
	res, err := SimulateCSMA(bianchi.Default80211b(), 1, 10000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions != 0 {
		t.Fatalf("single station had %d collisions", res.Collisions)
	}
	if res.Throughput <= 0 {
		t.Fatal("single station delivered nothing")
	}
}

func TestSimulateCSMAThroughputDecreases(t *testing.T) {
	p := bianchi.Default80211b()
	r2, err := SimulateCSMA(p, 2, simCycles, 7)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := SimulateCSMA(p, 16, simCycles, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r16.Throughput >= r2.Throughput {
		t.Fatalf("practical CSMA should degrade: n=2 %.4f vs n=16 %.4f",
			r2.Throughput, r16.Throughput)
	}
	if r16.Collisions <= r2.Collisions {
		t.Fatalf("collisions should grow with n: %d vs %d", r2.Collisions, r16.Collisions)
	}
}

func TestSimulateCSMADeterminism(t *testing.T) {
	p := bianchi.Default80211b()
	a, err := SimulateCSMA(p, 4, 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCSMA(p, 4, 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Collisions != b.Collisions {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := SimulateCSMA(p, 4, 20000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput == c.Throughput && a.Collisions == c.Collisions && a.IdleSlots == c.IdleSlots {
		t.Fatal("different seeds produced identical runs; RNG not wired through")
	}
}

func TestSimulateCSMAErrors(t *testing.T) {
	p := bianchi.Default80211b()
	if _, err := SimulateCSMA(p, 0, 100, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := SimulateCSMA(p, 1, 0, 1); err == nil {
		t.Error("cycles=0 should error")
	}
	var bad bianchi.Params
	if _, err := SimulateCSMA(bad, 1, 100, 1); err == nil {
		t.Error("invalid params should error")
	}
}

func TestSimulateCSMAAccounting(t *testing.T) {
	res, err := SimulateCSMA(bianchi.Default80211b(), 3, 5000, 21)
	if err != nil {
		t.Fatal(err)
	}
	var wins int64
	for _, w := range res.Successes {
		wins += w
	}
	// successes + collisions + idle slots == total cycles
	if got := wins + res.Collisions + res.IdleSlots; got != 5000 {
		t.Fatalf("cycle accounting: %d wins + %d collisions + %d idle = %d, want 5000",
			wins, res.Collisions, res.IdleSlots, got)
	}
	if res.SimTime <= 0 {
		t.Fatal("non-positive sim time")
	}
}

func TestSimulateCSMAFreezeSemantics(t *testing.T) {
	// Real-802.11 freeze semantics vs Bianchi virtual-slot semantics: both
	// must stay fair, deliver similar throughput (the decoupling gap is a
	// few percent), and differ detectably on the same seed.
	p := bianchi.Default80211b()
	virtual, err := SimulateCSMA(p, 6, simCycles, 7)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := SimulateCSMAWith(p, 6, simCycles, 7, CSMAOptions{Freeze: true})
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Throughput == virtual.Throughput && frozen.Collisions == virtual.Collisions {
		t.Fatal("freeze option had no effect")
	}
	rel := math.Abs(frozen.Throughput-virtual.Throughput) / virtual.Throughput
	if rel > 0.10 {
		t.Errorf("freeze vs virtual throughput differ %.1f%%, expected < 10%%", rel*100)
	}
	jain, err := stats.JainIndex(frozen.PerStation)
	if err != nil {
		t.Fatal(err)
	}
	if jain < 0.99 {
		t.Errorf("freeze semantics broke fairness: Jain %.4f", jain)
	}
}

func TestSimulateCSMARTSCTS(t *testing.T) {
	// End-to-end: the simulator honours the RTS/CTS frame times, and the
	// high-contention win over basic access shows up in simulation too.
	basic := bianchi.Bianchi1Mbps()
	rts := basic.WithRTSCTS()
	simBasic, err := SimulateCSMA(basic, 24, simCycles, 5)
	if err != nil {
		t.Fatal(err)
	}
	simRTS, err := SimulateCSMA(rts, 24, simCycles, 5)
	if err != nil {
		t.Fatal(err)
	}
	if simRTS.Throughput <= simBasic.Throughput {
		t.Errorf("n=24: RTS/CTS sim (%v) should beat basic sim (%v)",
			simRTS.Throughput, simBasic.Throughput)
	}
	model, err := bianchi.Solve(rts, 24)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(simRTS.Throughput-model.Throughput) / model.Throughput
	if relErr > 0.05 {
		t.Errorf("RTS/CTS sim %.4f vs model %.4f (%.1f%% off)",
			simRTS.Throughput, model.Throughput, relErr*100)
	}
}

func TestEmpiricalCSMARate(t *testing.T) {
	p := bianchi.Default80211b()
	f, err := EmpiricalCSMARate(p, 8, 60000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(f, 8); err != nil {
		t.Fatalf("empirical rate violates contract: %v", err)
	}
	// Each point must be near the analytical model. EmpiricalCSMARate
	// applies a running-min envelope, so compare against the enveloped
	// model (raw Bianchi throughput rises slightly from n=1 to n=3 for
	// this PHY).
	modelMin := math.Inf(1)
	for k := 1; k <= 8; k++ {
		model, err := bianchi.Solve(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if model.Throughput < modelMin {
			modelMin = model.Throughput
		}
		rel := math.Abs(f.Rate(k)-modelMin) / modelMin
		if rel > 0.05 {
			t.Errorf("k=%d: empirical %.4f vs enveloped model %.4f (%.1f%% off)",
				k, f.Rate(k), modelMin, rel*100)
		}
	}
}

func TestEmpiricalCSMARateErrors(t *testing.T) {
	p := bianchi.Default80211b()
	if _, err := EmpiricalCSMARate(p, 0, 100, 1); err == nil {
		t.Error("maxK=0 should error")
	}
	var bad bianchi.Params
	if _, err := EmpiricalCSMARate(bad, 2, 100, 1); err == nil {
		t.Error("invalid params should error")
	}
	if _, err := EmpiricalCSMARate(p, 1, 0, 1); err == nil {
		t.Error("cycles=0 should error")
	}
}

// float64Bits renders each value's IEEE-754 bits, so a pin compares exact
// simulator output rather than output within a tolerance.
func float64Bits(vs ...float64) []uint64 {
	bits := make([]uint64, len(vs))
	for i, v := range vs {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestSimulateCSMAFreezePinned pins the exact results of a seeded run
// under freeze semantics, which no experiment exercises.
func TestSimulateCSMAFreezePinned(t *testing.T) {
	res, err := SimulateCSMAWith(bianchi.Default80211b(), 5, 20000, 2006, CSMAOptions{Freeze: true})
	if err != nil {
		t.Fatal(err)
	}
	got := float64Bits(append([]float64{res.SimTime, res.Throughput}, res.PerStation...)...)
	want := []uint64{0x4153b80b6e8ba26d, 0x4015834a5956d5c5, 0x3ff1878abb31bb13, 0x3ff25092cbb80727,
		0x3feff7ed776bb617, 0x3ff1a17b41749b9a, 0x3ff09799e1471e34}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SimTime, Throughput, PerStation bits %#v, want %#v", got, want)
	}
	counts := append([]int64{res.Collisions, res.IdleSlots}, res.Successes...)
	wantCounts := []int64{333, 16270, 692, 723, 631, 696, 655}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Errorf("Collisions, IdleSlots, Successes %v, want %v", counts, wantCounts)
	}
}
