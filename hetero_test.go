package chanalloc_test

import (
	"strings"
	"testing"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

func TestPublicHeteroGame(t *testing.T) {
	g, err := chanalloc.NewHeteroGame(6, []int{4, 2, 3, 1}, chanalloc.TDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanalloc.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("hetero allocation not NE")
	}
	if !chanalloc.LoadBalanced(a) {
		t.Fatal("hetero allocation not load balanced")
	}
}

func TestPublicDeployment(t *testing.T) {
	d, err := chanalloc.NewDeployment(chanalloc.UNII5GHz(), []chanalloc.Device{
		{ID: "a", Radios: 3},
		{ID: "b", Radios: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.HeteroGame(chanalloc.TDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanalloc.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	assignments, err := d.Assignments(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 5 {
		t.Fatalf("%d assignments, want 5", len(assignments))
	}
	if !strings.Contains(assignments[0].String(), "MHz") {
		t.Fatal("assignment string missing frequency")
	}
}

func TestPublicBands(t *testing.T) {
	if chanalloc.UNII5GHz().NumChannels != 8 {
		t.Error("U-NII band should expose 8 channels")
	}
}

func TestPublicSimultaneousDynamics(t *testing.T) {
	g, err := chanalloc.NewGame(5, 4, 2, chanalloc.TDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chanalloc.RunSimultaneous(g, chanalloc.RandomAlloc(g, 1), 0.5,
		chanalloc.WithDynamicsSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("simultaneous dynamics did not converge")
	}
}

// TestPublicLinearRate runs the facade's game on a rate that reaches zero
// at finite load (ratefn.Linear, clamped at 0).
func TestPublicLinearRate(t *testing.T) {
	r := ratefn.Linear{R0: 10, Slope: 2}
	if err := ratefn.Validate(r, 32); err != nil {
		t.Fatal(err)
	}
	if r.Rate(6) != 0 {
		t.Fatalf("Rate(6) = %v, want 0 (clamped)", r.Rate(6))
	}
	// A game on a rate that hits zero still works end to end.
	g, err := chanalloc.NewGame(4, 3, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanalloc.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		dev, _ := g.FindDeviation(a, chanalloc.DefaultEps)
		t.Fatalf("Algorithm 1 output not NE under clamped linear rate: %v", dev)
	}
}

func TestPublicRTSCTS(t *testing.T) {
	p := chanalloc.Bianchi1Mbps().WithRTSCTS()
	basic, err := chanalloc.SolveDCF(chanalloc.Bianchi1Mbps(), 40)
	if err != nil {
		t.Fatal(err)
	}
	rts, err := chanalloc.SolveDCF(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rts.Throughput <= basic.Throughput {
		t.Fatal("RTS/CTS should beat basic access at n=40")
	}
	r, err := chanalloc.PracticalCSMA(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(r, 20); err != nil {
		t.Fatal(err)
	}
}

// TestPublicPlacer checks the per-user greedy placement that Algorithm 1
// and the distributed protocol share: it water-fills the emptiest channels.
func TestPublicPlacer(t *testing.T) {
	p := core.Placer{}
	row, err := p.Place([]int{2, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row[1] != 1 || row[2] != 1 {
		t.Fatalf("row = %v, want water-fill [0 1 1]", row)
	}
}
