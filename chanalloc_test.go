package chanalloc_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/bianchi"
	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// TestPublicQuickstart walks the README's quickstart through the public API.
func TestPublicQuickstart(t *testing.T) {
	g, err := chanalloc.NewGame(7, 6, 4, chanalloc.TDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	ne, err := chanalloc.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	ok, v := chanalloc.TheoremNE(g, ne)
	if !ok {
		t.Fatalf("Algorithm 1 output fails Theorem 1: %v", v)
	}
	stable, err := g.IsNashEquilibrium(ne)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("Algorithm 1 output rejected by oracle")
	}
	poa, err := chanalloc.PriceOfAnarchy(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-1) > 1e-12 {
		t.Fatalf("PoA = %v, want 1 under constant R", poa)
	}
}

func TestPublicRateFamilies(t *testing.T) {
	rates := []chanalloc.RateFunc{
		chanalloc.TDMA(10),
		chanalloc.HarmonicRate(10, 0.5),
		chanalloc.GeometricRate(10, 0.9),
	}
	for _, r := range rates {
		if err := ratefn.Validate(r, 32); err != nil {
			t.Errorf("%s: %v", r.Name(), err)
		}
	}
}

func TestPublicCSMAAdapters(t *testing.T) {
	p := chanalloc.Default80211b()
	prac, err := chanalloc.PracticalCSMA(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := chanalloc.OptimalCSMA(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(prac, 20); err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(opt, 20); err != nil {
		t.Fatal(err)
	}
	// A full game on the practical CSMA rate still lands on a NE.
	g, err := chanalloc.NewGame(5, 4, 3, prac)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := chanalloc.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := g.IsNashEquilibrium(ne)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("Algorithm 1 output on CSMA rate is not NE")
	}
}

func TestPublicScenarios(t *testing.T) {
	// The paper's worked examples pin a strategy matrix.
	for _, name := range []string{"fig1", "fig4", "fig5"} {
		s, err := chanalloc.ScenarioByName(name, chanalloc.TDMA(1))
		if err != nil {
			t.Fatal(err)
		}
		if s.Alloc == nil {
			t.Fatalf("%s has no pinned allocation", name)
		}
	}
	// Every registered family carries usage text and resolves via the
	// registry (parametric families with example parameters).
	if fams := chanalloc.ScenarioFamilies(); len(fams) < 7 {
		t.Fatalf("registry too small: %v", fams)
	}
	for _, name := range []string{"mesh", "cognitive", "random:8,6,3", "hetero:6,4,4,2,1"} {
		s, err := chanalloc.ScenarioByName(name, chanalloc.TDMA(1))
		if err != nil {
			t.Fatal(err)
		}
		if s.Game == nil {
			t.Fatalf("%s resolved without a game", name)
		}
	}
	// The registry is process-global: use a unique name per run so the
	// test stays idempotent under -count=N.
	name := fmt.Sprintf("facade-test-%d", facadeRegistrations.Add(1))
	if err := chanalloc.RegisterScenario(
		chanalloc.ScenarioFamily{Name: name, Usage: name, Description: "test"},
		func(params string, r chanalloc.RateFunc) (*chanalloc.Scenario, error) {
			return chanalloc.ScenarioFigure4(r)
		}); err != nil {
		t.Fatal(err)
	}
	if _, err := chanalloc.ScenarioByName(name, chanalloc.TDMA(1)); err != nil {
		t.Fatal(err)
	}
}

// facadeRegistrations keeps registry-mutating tests idempotent across
// repeated runs in one process.
var facadeRegistrations atomic.Int64

func TestPublicDynamics(t *testing.T) {
	g, err := chanalloc.NewGame(5, 4, 3, chanalloc.TDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	start := chanalloc.RandomAlloc(g, 42)
	res, err := chanalloc.RunBestResponse(g, start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("dynamics did not converge")
	}
	stable, err := g.IsNashEquilibrium(res.Final)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("converged state not NE")
	}
	if g.Potential(res.Final) < g.Potential(start)-1e-9 {
		t.Fatal("potential decreased end to end")
	}
}

func TestPublicDistributed(t *testing.T) {
	r := chanalloc.TDMA(1)
	g, err := chanalloc.NewGame(4, 4, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	policies := chanalloc.UniformPolicies(g.Users(), func(int) chanalloc.Policy {
		return &chanalloc.BestResponsePolicy{Rate: r}
	})
	res, err := chanalloc.RunDistributed(g, policies)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("distributed run did not converge")
	}
	stable, err := g.IsNashEquilibrium(res.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("distributed result not NE")
	}
}

func TestPublicSimulators(t *testing.T) {
	res, err := chanalloc.SimulateCSMA(chanalloc.Default80211b(), 3, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("CSMA sim produced nothing")
	}
}

func TestPublicWelfareHelpers(t *testing.T) {
	g, err := chanalloc.NewGame(2, 3, 2, chanalloc.TDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	all, _ := chanalloc.OptimalWelfareAllPlaced(g)
	idle, _ := chanalloc.OptimalWelfareIdleAllowed(g)
	if all <= 0 || idle <= 0 {
		t.Fatal("degenerate optima")
	}
	nes, err := chanalloc.EnumerateNE(g, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(nes) == 0 {
		t.Fatal("no NE enumerated")
	}
	imp, err := chanalloc.FindParetoImprovement(g, nes[0], 1e-9, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if imp != nil {
		t.Fatal("NE should be Pareto-optimal")
	}
}

func TestPublicDCFSolvers(t *testing.T) {
	p := chanalloc.Bianchi1Mbps()
	r, err := chanalloc.SolveDCF(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency < 0.6 || r.Efficiency > 0.9 {
		t.Fatalf("efficiency %v outside Bianchi's published band", r.Efficiency)
	}
	o, err := bianchi.SolveOptimal(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if o.Throughput <= r.Throughput {
		t.Fatal("optimal backoff should beat practical at n=10")
	}
	emp, err := chanalloc.EmpiricalCSMARate(p, 3, 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ratefn.Validate(emp, 3); err != nil {
		t.Fatal(err)
	}
}

// TestPublicWorkspaceKernel exercises the allocation-free facade: a
// workspace borrowed from the shared pool gives the workspace entry points
// the same answers as the one-shot forms.
func TestPublicWorkspaceKernel(t *testing.T) {
	g, err := chanalloc.NewGame(4, 4, 2, chanalloc.TDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	a := chanalloc.RandomAlloc(g, 7)
	ws := chanalloc.BorrowWorkspace()
	defer chanalloc.ReturnWorkspace(ws)
	for i := 0; i < g.Users(); i++ {
		wantRow, wantVal, err := g.BestResponse(a, i)
		if err != nil {
			t.Fatal(err)
		}
		gotRow, gotVal, err := g.BestResponseInto(ws, a, i)
		if err != nil {
			t.Fatal(err)
		}
		if gotVal != wantVal {
			t.Fatalf("user %d: workspace value %v, one-shot %v", i, gotVal, wantVal)
		}
		for c := range wantRow {
			if gotRow[c] != wantRow[c] {
				t.Fatalf("user %d: workspace row %v, one-shot %v", i, gotRow, wantRow)
			}
		}
	}
	oneShot, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	screened, err := g.IsNashEquilibriumWith(ws, a)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot != screened {
		t.Fatalf("screened oracle %v, one-shot %v", screened, oneShot)
	}

	ext := []int{2, 0, 1, 3}
	rowA, valA, err := chanalloc.BestResponseToLoads(chanalloc.TDMA(1), ext, 2)
	if err != nil {
		t.Fatal(err)
	}
	rowB, valB, err := core.BestResponseToLoadsInto(ws, chanalloc.TDMA(1), ext, 2)
	if err != nil {
		t.Fatal(err)
	}
	if valA != valB {
		t.Fatalf("loads DP: workspace value %v, one-shot %v", valB, valA)
	}
	for c := range rowA {
		if rowA[c] != rowB[c] {
			t.Fatalf("loads DP rows differ: %v vs %v", rowA, rowB)
		}
	}
}
