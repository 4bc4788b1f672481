// Benchmarks regenerating every figure of the reproduced paper plus the
// core operations behind them. Run:
//
//	go test -bench=. -benchmem
//
// Figure mapping (see the "Figure mapping" section of EXPERIMENTS.md):
//
//	BenchmarkFigure1* — Figures 1-2: the worked example and its lemma audit
//	BenchmarkFigure3* — Figure 3: R(k_c) curves for TDMA / optimal / practical CSMA-CA
//	BenchmarkFigure4* — Figure 4: NE with exception user, Theorem 1 + oracle
//	BenchmarkFigure5* — Figure 5: NE without exception user
//
// The remaining benchmarks cover Algorithm 1, the best-response DP, the
// exact-arithmetic oracle, convergence dynamics, the distributed protocol
// and the MAC simulators — the machinery every experiment is built from.
// The Benchmark*Parallel* pairs compare the engine-sharded batch paths
// (EXPERIMENTS.md "Benchmarks") at workers=1 vs workers=NumCPU.
package chanalloc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"testing"

	"github.com/multiradio/chanalloc"
)

func benchGame(b *testing.B, users, channels, radios int, r chanalloc.RateFunc) *chanalloc.Game {
	b.Helper()
	g, err := chanalloc.NewGame(users, channels, radios, r)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFigure1LemmaAudit regenerates the paper's Figure 1/2 walkthrough:
// build the example allocation and produce one witness per violated rule.
func BenchmarkFigure1LemmaAudit(b *testing.B) {
	b.ReportAllocs()
	s, err := chanalloc.ScenarioFigure1(chanalloc.TDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := chanalloc.CheckAllLemmas(s.Game, s.Alloc); len(vs) == 0 {
			b.Fatal("figure 1 must violate lemmas")
		}
	}
}

// BenchmarkFigure1Render regenerates the Figure 2 strategy-matrix rendering.
func BenchmarkFigure1Render(b *testing.B) {
	b.ReportAllocs()
	s, err := chanalloc.ScenarioFigure1(chanalloc.TDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Alloc.String() == "" {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkFigure3Curves regenerates Figure 3: all three R(k_c) curves for
// k = 1..30 (TDMA constant, optimal CSMA/CA, practical CSMA/CA).
func BenchmarkFigure3Curves(b *testing.B) {
	b.ReportAllocs()
	p := chanalloc.Default80211b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tdma := chanalloc.TDMA(p.DataRate)
		opt, err := chanalloc.OptimalCSMA(p)
		if err != nil {
			b.Fatal(err)
		}
		prac, err := chanalloc.PracticalCSMA(p)
		if err != nil {
			b.Fatal(err)
		}
		for k := 1; k <= 30; k++ {
			if tdma.Rate(k) < prac.Rate(k) {
				b.Fatal("practical CSMA above TDMA")
			}
			_ = opt.Rate(k)
		}
	}
}

// BenchmarkFigure4Verify regenerates Figure 4's claim: the exception-user
// allocation passes both the Theorem 1 checker and the exact oracle.
func BenchmarkFigure4Verify(b *testing.B) {
	b.ReportAllocs()
	s, err := chanalloc.ScenarioFigure4(chanalloc.TDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := chanalloc.TheoremNE(s.Game, s.Alloc); !ok {
			b.Fatal("figure 4 should satisfy Theorem 1")
		}
		ne, err := s.Game.IsNashEquilibrium(s.Alloc)
		if err != nil || !ne {
			b.Fatalf("figure 4 oracle: ne=%v err=%v", ne, err)
		}
	}
}

// BenchmarkFigure5Verify regenerates Figure 5's claim (NE, no exception).
func BenchmarkFigure5Verify(b *testing.B) {
	b.ReportAllocs()
	s, err := chanalloc.ScenarioFigure5(chanalloc.TDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := chanalloc.TheoremNE(s.Game, s.Alloc); !ok {
			b.Fatal("figure 5 should satisfy Theorem 1")
		}
		ne, err := s.Game.IsNashEquilibrium(s.Alloc)
		if err != nil || !ne {
			b.Fatalf("figure 5 oracle: ne=%v err=%v", ne, err)
		}
	}
}

// BenchmarkAlgorithm1 measures the centralised allocation across sizes
// (experiment E4's engine).
func BenchmarkAlgorithm1(b *testing.B) {
	b.ReportAllocs()
	sizes := []struct{ n, c, k int }{
		{7, 6, 4},
		{16, 12, 8},
		{64, 32, 16},
		{256, 64, 32},
	}
	for _, sz := range sizes {
		b.Run(fmt.Sprintf("N%d_C%d_k%d", sz.n, sz.c, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			g := benchGame(b, sz.n, sz.c, sz.k, chanalloc.TDMA(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chanalloc.Algorithm1(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestResponseDP measures the exact best-response dynamic program
// in its steady-state form: one reused workspace, zero allocations per
// operation (the acceptance bar for the allocation-free kernel).
func BenchmarkBestResponseDP(b *testing.B) {
	b.ReportAllocs()
	sizes := []struct{ c, k int }{
		{6, 4},
		{16, 8},
		{64, 16},
	}
	for _, sz := range sizes {
		b.Run(fmt.Sprintf("C%d_k%d", sz.c, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			ext := make([]int, sz.c)
			for c := range ext {
				ext[c] = (c*7)%5 + 1
			}
			r := chanalloc.TDMA(1)
			ws := chanalloc.NewWorkspace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := chanalloc.BestResponseToLoadsInto(ws, r, ext, sz.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestResponseDPOneShot is the allocating convenience form, kept
// so a benchdiff comparison shows the one-shot vs workspace gap.
func BenchmarkBestResponseDPOneShot(b *testing.B) {
	b.ReportAllocs()
	ext := make([]int, 16)
	for c := range ext {
		ext[c] = (c*7)%5 + 1
	}
	r := chanalloc.TDMA(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := chanalloc.BestResponseToLoads(r, ext, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheoremNE measures the closed-form NE checker on a large NE.
func BenchmarkTheoremNE(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 64, 32, 16, chanalloc.TDMA(1))
	ne, err := chanalloc.Algorithm1(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, v := chanalloc.TheoremNE(g, ne); !ok {
			b.Fatalf("not NE: %v", v)
		}
	}
}

// BenchmarkExactOracle measures the full best-response NE oracle in its
// steady-state form (screen-then-prove over a reused workspace); the input
// is an equilibrium, so every run pays the worst case: a full screen plus
// the per-user DP proof.
func BenchmarkExactOracle(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 16, 12, 8, chanalloc.TDMA(1))
	ne, err := chanalloc.Algorithm1(g)
	if err != nil {
		b.Fatal(err)
	}
	ws := chanalloc.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := g.IsNashEquilibriumWith(ws, ne)
		if err != nil || !ok {
			b.Fatalf("oracle: %v %v", ok, err)
		}
	}
}

// BenchmarkBianchiSolve measures the DCF fixed-point solver (Figure 3's
// inner loop).
func BenchmarkBianchiSolve(b *testing.B) {
	b.ReportAllocs()
	p := chanalloc.Default80211b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chanalloc.SolveDCF(p, 1+(i%32)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSMASimulator measures the slot-level MAC simulator (experiment
// E5's engine), in slots per second.
func BenchmarkCSMASimulator(b *testing.B) {
	b.ReportAllocs()
	p := chanalloc.Default80211b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chanalloc.SimulateCSMA(p, 8, 10000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestResponseDynamics measures convergence from a random start
// (experiment E6's engine).
func BenchmarkBestResponseDynamics(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 16, 12, 6, chanalloc.TDMA(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := chanalloc.RandomAlloc(g, uint64(i))
		res, err := chanalloc.RunBestResponse(g, start)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkDistributedProtocol measures a full in-process token-ring run
// (experiment E7's engine).
func BenchmarkDistributedProtocol(b *testing.B) {
	b.ReportAllocs()
	r := chanalloc.TDMA(1)
	g := benchGame(b, 8, 6, 3, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policies := chanalloc.UniformPolicies(g.Users(), func(int) chanalloc.Policy {
			return &chanalloc.BestResponsePolicy{Rate: r}
		})
		res, err := chanalloc.RunDistributed(g, policies)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkWelfareOptimum measures the all-placed welfare DP (experiment
// E9's engine).
func BenchmarkWelfareOptimum(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 16, 12, 8, chanalloc.HarmonicRate(1, 0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if opt, _ := chanalloc.OptimalWelfareAllPlaced(g); opt <= 0 {
			b.Fatal("degenerate optimum")
		}
	}
}

// BenchmarkHeteroAlgorithm1 measures Algorithm 1 on a game with per-user
// budgets (experiment E11's engine).
func BenchmarkHeteroAlgorithm1(b *testing.B) {
	b.ReportAllocs()
	budgets := make([]int, 64)
	for i := range budgets {
		budgets[i] = 1 + i%16
	}
	g, err := chanalloc.NewHeteroGame(32, budgets, chanalloc.TDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chanalloc.Algorithm1(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBianchiRTSCTS measures the RTS/CTS fixed point used by the
// Figure 3 extension series.
func BenchmarkBianchiRTSCTS(b *testing.B) {
	b.ReportAllocs()
	p := chanalloc.Bianchi1Mbps().WithRTSCTS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chanalloc.SolveDCF(p, 1+(i%32)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimultaneousDynamics measures simultaneous best response with
// inertia 0.5 (E6's slowest process).
func BenchmarkSimultaneousDynamics(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 8, 6, 3, chanalloc.TDMA(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := chanalloc.RandomAlloc(g, uint64(i))
		if _, err := chanalloc.RunSimultaneous(g, start, 0.5, chanalloc.WithDynamicsSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateNEParallel measures the exhaustive NE enumeration
// sharded over the engine, at one worker (the serial baseline cost plus
// pool overhead) and at NumCPU workers.
func BenchmarkEnumerateNEParallel(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 4, 4, 2, chanalloc.TDMA(1))
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nes, err := chanalloc.EnumerateNEParallel(g, 10_000_000, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(nes) == 0 {
					b.Fatal("no NE found")
				}
			}
		})
	}
}

// BenchmarkEnumerateNESerial is the unsharded baseline for
// BenchmarkEnumerateNEParallel.
func BenchmarkEnumerateNESerial(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 4, 4, 2, chanalloc.TDMA(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nes, err := chanalloc.EnumerateNE(g, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(nes) == 0 {
			b.Fatal("no NE found")
		}
	}
}

// BenchmarkDynamicsBatchParallel measures a 32-replicate best-response
// batch (experiment E6's engine path) at one worker vs NumCPU workers.
func BenchmarkDynamicsBatchParallel(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 16, 12, 6, chanalloc.TDMA(1))
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chanalloc.RunBatch(g, chanalloc.BatchSpec{
					Process:    chanalloc.BestResponseProcess,
					Replicates: 32,
					Seed:       9,
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Converged != 32 {
					b.Fatalf("converged %d/32", res.Converged)
				}
			}
		})
	}
}

// BenchmarkPotential measures the congestion-potential evaluation used to
// trace dynamics.
func BenchmarkPotential(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 64, 32, 16, chanalloc.TDMA(1))
	ne, err := chanalloc.Algorithm1(g)
	if err != nil {
		b.Fatal(err)
	}
	r := g.Rate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chanalloc.Potential(r, ne) <= 0 {
			b.Fatal("degenerate potential")
		}
	}
}

// benchDispatchTask is a minimal engine task for the dispatch benchmarks:
// near-zero work per job, so the measured time is almost pure wire latency
// — exactly where lock-step and pipelined dispatch differ.
const benchDispatchTask = "bench/echo"

func init() {
	if err := chanalloc.RegisterEngineTask(benchDispatchTask,
		func(_ struct{}, job int, _ *chanalloc.RNG) (any, error) {
			return job, nil
		}); err != nil {
		panic(err)
	}
}

// benchDispatchBatch runs one small-job batch over the backend and fails
// the benchmark on any error.
func benchDispatchBatch(b *testing.B, backend chanalloc.EngineBackend, jobs int) {
	b.Helper()
	got, _, err := backend.RunTask(benchDispatchTask, json.RawMessage(`{}`), jobs,
		chanalloc.EngineSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	if len(got) != jobs {
		b.Fatalf("got %d results, want %d", len(got), jobs)
	}
}

// BenchmarkDispatch measures the shared remote dispatcher on a
// 64-small-job batch over loopback TCP, one worker each, from its two
// network peer sources: a dialled socket worker and a joined cluster
// member, at windows 1 (lock-step: one round-trip per job), 8 and 32
// (pipelined: roughly one round-trip per window; EXPERIMENTS.md
// "Work-queue and window semantics"). Compare two commits' -count runs
// of these ops with cmd/benchdiff like any other benchmark.
func BenchmarkDispatch(b *testing.B) {
	b.ReportAllocs()
	const jobs = 64
	for _, window := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("dial/window%d", window), func(b *testing.B) {
			b.ReportAllocs()
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan struct{})
			go func() { defer close(done); chanalloc.EngineServe(lis) }()
			defer func() { lis.Close(); <-done }()
			backend := chanalloc.NewSocketBackendWith([]string{lis.Addr().String()},
				chanalloc.ClusterWindow(window))
			benchDispatchBatch(b, backend, jobs) // warm up the connection path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchDispatchBatch(b, backend, jobs)
			}
		})
		b.Run(fmt.Sprintf("accept/window%d", window), func(b *testing.B) {
			b.ReportAllocs()
			backend, err := chanalloc.NewClusterBackend("127.0.0.1:0",
				chanalloc.ClusterWindow(window))
			if err != nil {
				b.Fatal(err)
			}
			defer backend.Close()
			stop := make(chan struct{})
			joined := make(chan struct{})
			go func() {
				defer close(joined)
				chanalloc.EngineJoinAndServe(backend.Addr(), chanalloc.JoinStop(stop))
			}()
			defer func() { close(stop); <-joined }()
			benchDispatchBatch(b, backend, jobs) // absorbs the join wait
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchDispatchBatch(b, backend, jobs)
			}
		})
	}
}

// BenchmarkEnumerateNESymmetry measures the canonical-orbit enumeration on
// the all-equal-k game of BenchmarkEnumerateNESerial, WITHOUT the orbit
// expansion back to the unreduced output — the raw cost of the
// symmetry-reduced walk (C(R+N-1, N) canonical profiles instead of R^N).
// The gap to BenchmarkEnumerateNESerial is the expansion adapter's cost.
func BenchmarkEnumerateNESymmetry(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 4, 4, 2, chanalloc.TDMA(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := chanalloc.EnumerateNECanonical(g, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) == 0 {
			b.Fatal("no NE found")
		}
	}
}

// BenchmarkScreenIncremental measures a mixed-budget canonical walk
// (budgets 1,2,2,3 over 4 channels) in which the orbit reduction is weak:
// three exchangeability classes, only one of them a pair, so the walk
// still visits about half of the unreduced grid and the runtime is
// dominated by the per-profile ScreenedNE oracle rather than by orbit
// collapsing.
func BenchmarkScreenIncremental(b *testing.B) {
	b.ReportAllocs()
	g, err := chanalloc.NewHeteroGame(4, []int{1, 2, 2, 3}, chanalloc.TDMA(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := chanalloc.EnumerateNECanonical(g, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) == 0 {
			b.Fatal("no NE found")
		}
	}
}

// BenchmarkParetoImprovement measures the exhaustive Pareto-optimality
// scan on the 4×4×2 reference game from an Algorithm 1 equilibrium — a
// Pareto-optimal input, so every variant pays the worst case: the complete
// walk of its search space with no early exit. "orbit" is the
// symmetry-reduced search (one matching test per canonical representative,
// ~13× fewer profiles than the 50625-profile grid) and "parallel" the
// sharded orbit walk at NumCPU workers. The direct grid baseline the orbit
// search is differential-tested against is internal/core's
// BenchmarkParetoImprovement/unreduced.
func BenchmarkParetoImprovement(b *testing.B) {
	b.ReportAllocs()
	g := benchGame(b, 4, 4, 2, chanalloc.TDMA(1))
	ne, err := chanalloc.Algorithm1(g)
	if err != nil {
		b.Fatal(err)
	}
	const cap = 10_000_000
	b.Run("orbit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := chanalloc.FindParetoImprovement(g, ne, chanalloc.DefaultEps, cap)
			if err != nil {
				b.Fatal(err)
			}
			if w != nil {
				b.Fatal("Algorithm 1's NE must be Pareto-optimal")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := chanalloc.FindParetoImprovementParallel(g, ne, chanalloc.DefaultEps, cap, runtime.NumCPU())
			if err != nil {
				b.Fatal(err)
			}
			if w != nil {
				b.Fatal("Algorithm 1's NE must be Pareto-optimal")
			}
		}
	})
}

// BenchmarkWelfareDP measures the welfare dynamic program's two steady
// states: "into" is the slab DP in a reused workspace (the acceptance bar
// is 0 allocs/op), "memoised" the per-game cache serving repeated
// PriceOfAnarchy calls, and "oneshot" the allocating form kept as the
// trajectory baseline.
func BenchmarkWelfareDP(b *testing.B) {
	b.ReportAllocs()
	r := chanalloc.HarmonicRate(1, 0.5)
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		ws := chanalloc.NewWorkspace()
		chanalloc.OptimalLoadWelfareInto(ws, r, 16, 128) // size the slabs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if opt, _ := chanalloc.OptimalLoadWelfareInto(ws, r, 16, 128); opt <= 0 {
				b.Fatal("degenerate optimum")
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if opt, _ := chanalloc.OptimalLoadWelfare(r, 16, 128); opt <= 0 {
				b.Fatal("degenerate optimum")
			}
		}
	})
	b.Run("memoised", func(b *testing.B) {
		b.ReportAllocs()
		g := benchGame(b, 16, 12, 8, r)
		ne, err := chanalloc.Algorithm1(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if poa, err := chanalloc.PriceOfAnarchy(g, ne); err != nil || poa <= 0 {
				b.Fatalf("poa %v err %v", poa, err)
			}
		}
	})
}

// BenchmarkDistPolicy measures one best-response Propose against announced
// loads — the device-side hot path of the distributed protocol. The
// steady-state (no-move) reply must stay allocation-free: the policy
// borrows its DP workspace from the shared pool for the call.
func BenchmarkDistPolicy(b *testing.B) {
	b.ReportAllocs()
	r := chanalloc.TDMA(1)
	policy := &chanalloc.BestResponsePolicy{Rate: r}
	ext := []int{5, 4, 6, 3, 5, 4, 6, 5}
	// A row that is already a best response to ext, so Propose takes the
	// no-move path every iteration.
	current, _, err := chanalloc.BestResponseToLoads(r, ext, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := policy.Propose(ext, current, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(row) != len(ext) {
			b.Fatal("bad row")
		}
	}
}

// BenchmarkRequilibrate replays a seeded 200-event churn trace through the
// live game, re-equilibrating after every event. The warm variant carries
// quiet verdicts across events (the allocd service path); the cold variant
// voids them before each run, measuring the same trajectory with a full
// sweep. Both end at bit-identical allocations — the committed metric is
// the best-response evaluations per churn event (dp/event) next to the DPs
// the kernel actually executed once the (budget, row) class index has
// answered the repeats (kernel-dp/event, from the workspace counters the
// sweep flushes into kernel_dp_calls_total).
func BenchmarkRequilibrate(b *testing.B) {
	spec := chanalloc.DefaultChurnSpec(4, 6, 200, 7)
	trace, err := chanalloc.GenerateChurnTrace(spec)
	if err != nil {
		b.Fatal(err)
	}
	rate := chanalloc.TDMA(54)
	replay := func(b *testing.B, warm bool) {
		b.Helper()
		b.ReportAllocs()
		var dpCalls, skipped float64
		kernelDPs := chanalloc.NewObsCounter("kernel_dp_calls_total")
		kernel0 := kernelDPs.Value()
		for i := 0; i < b.N; i++ {
			lg, err := chanalloc.NewLiveGame(spec.Channels, rate)
			if err != nil {
				b.Fatal(err)
			}
			ws := chanalloc.BorrowWorkspace()
			for _, req := range trace {
				switch req.Op {
				case "join":
					_, err = lg.Join(req.Budget)
				case "leave":
					err = lg.Leave(chanalloc.UserID(req.ID))
				case "budget":
					err = lg.SetBudget(chanalloc.UserID(req.ID), req.Budget)
				}
				if err != nil {
					b.Fatal(err)
				}
				if !warm {
					lg.MarkEquilibrated(false)
				}
				res, err := chanalloc.Requilibrate(lg, chanalloc.WithDynamicsWorkspace(ws))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
				dpCalls += float64(res.DPCalls)
				skipped += float64(res.WarmSkipped)
			}
			chanalloc.ReturnWorkspace(ws)
		}
		events := float64(b.N * len(trace))
		b.ReportMetric(dpCalls/events, "dp/event")
		b.ReportMetric(float64(kernelDPs.Value()-kernel0)/events, "kernel-dp/event")
		b.ReportMetric(skipped/events, "skip/event")
	}
	b.Run("warm", func(b *testing.B) { replay(b, true) })
	b.Run("cold", func(b *testing.B) { replay(b, false) })
}

// BenchmarkLiveServerChurn measures the full allocd service path — frame
// decode, mutation, warm re-equilibration, verification, frame encode —
// per churn event over an in-memory transport.
func BenchmarkLiveServerChurn(b *testing.B) {
	spec := chanalloc.DefaultChurnSpec(4, 6, 100, 7)
	trace, err := chanalloc.GenerateChurnTrace(spec)
	if err != nil {
		b.Fatal(err)
	}
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, req := range trace {
		if err := enc.Encode(req); err != nil {
			b.Fatal(err)
		}
	}
	rate := chanalloc.TDMA(54)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := chanalloc.NewLiveServer(chanalloc.LiveConfig{
			Channels: spec.Channels, Rate: rate, RateName: "tdma:54",
			Workers: 1, Verify: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer
		if err := chanalloc.ServeLive(srv, bytes.NewReader(in.Bytes()), &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/event")
}

// BenchmarkLiveEventScaling measures how allocd's cost per churn event
// grows with the population at a fixed channel count. Each size builds a
// 16-channel live game of N users with budgets cycling 1..4 and
// re-equilibrates it once; every op then applies a fixed event pair
// through the server — user 1's budget up from 1 to 2 and back down —
// with warm re-equilibration, welfare and single-worker NE verification.
// It reports ns/event, the best-response DPs the kernel executed per event
// (kernel-dp/event) and the number of distinct (budget, row) classes after
// set-up. When the event cost follows the classes rather than N, the
// N=4096 : N=1024 ns/event ratio stays well below 4.
func BenchmarkLiveEventScaling(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			srv, err := chanalloc.NewLiveServer(chanalloc.LiveConfig{
				Channels: 16, Rate: chanalloc.TDMA(54), RateName: "tdma:54",
				Workers: 1, Verify: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			lg := srv.Game()
			for i := 0; i < n; i++ {
				if _, err := lg.Join(1 + i%4); err != nil {
					b.Fatal(err)
				}
			}
			ws := chanalloc.BorrowWorkspace()
			res, err := chanalloc.Requilibrate(lg, chanalloc.WithDynamicsWorkspace(ws))
			chanalloc.ReturnWorkspace(ws)
			if err != nil || !res.Converged {
				b.Fatalf("set-up re-equilibration: converged %v, %v", res.Converged, err)
			}
			classes := map[string]bool{}
			for i := 0; i < lg.Users(); i++ {
				k, _ := lg.BudgetOf(lg.IDAt(i))
				classes[fmt.Sprint(k, lg.Alloc().Row(i))] = true
			}
			pair := [2]chanalloc.LiveRequest{
				{Op: "budget", ID: 1, Budget: 2},
				{Op: "budget", ID: 1, Budget: 1},
			}
			kernelDPs := chanalloc.NewObsCounter("kernel_dp_calls_total")
			b.ReportAllocs()
			b.ResetTimer()
			kernel0 := kernelDPs.Value()
			for i := 0; i < b.N; i++ {
				for _, req := range pair {
					if u := srv.Apply(req).Update; u == nil || !u.Converged || !u.Verified {
						b.Fatalf("event %+v: update %+v", req, u)
					}
				}
			}
			events := float64(2 * b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(kernelDPs.Value()-kernel0)/events, "kernel-dp/event")
			b.ReportMetric(float64(len(classes)), "classes")
		})
	}
}

// BenchmarkPooledWorkspaceBestResponse measures the shared-pool borrow /
// DP / return cycle the engine shards and the live server run in steady
// state; the zero-allocation property is pinned by a test
// (TestWorkspacePoolSteadyStateAllocs), this benchmark reports it.
func BenchmarkPooledWorkspaceBestResponse(b *testing.B) {
	g := benchGame(b, 16, 12, 6, chanalloc.TDMA(1))
	a := chanalloc.RandomAlloc(g, 1)
	// Warm the pool to the game's dimensions.
	ws := chanalloc.BorrowWorkspace()
	if _, _, err := g.BestResponseInto(ws, a, 0); err != nil {
		b.Fatal(err)
	}
	chanalloc.ReturnWorkspace(ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := chanalloc.BorrowWorkspace()
		if _, _, err := g.BestResponseInto(ws, a, i%g.Users()); err != nil {
			b.Fatal(err)
		}
		chanalloc.ReturnWorkspace(ws)
	}
}

// BenchmarkObsOverhead pins the instrumentation fast path every kernel and
// engine counter rides on: a counter add, a gauge set and a histogram
// observe together must stay allocation-free (0 allocs/op) and in the
// low-nanosecond range, or hot-path metrics would tax the DP benchmarks
// they exist to explain.
func BenchmarkObsOverhead(b *testing.B) {
	c := chanalloc.NewObsCounter("bench_obs_overhead_total")
	g := chanalloc.NewObsGauge("bench_obs_overhead_gauge")
	h := chanalloc.NewObsHistogram("bench_obs_overhead_depth", []int64{1, 8, 64, 512})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(int64(i & 1023))
	}
}
