package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/stats"
	"github.com/multiradio/chanalloc/internal/textplot"
)

// expEnv carries the run-wide knobs into one experiment: where CSVs go,
// the experiment's private root seed (derived from the -seed flag and the
// experiment's fixed index, so it does not depend on which subset runs) and
// the worker-pool size for the experiment's internal batch paths. All
// randomness must flow from seed via per-job engine streams — that is what
// makes `sweep -seed S` emit byte-identical tables and CSVs for every
// -workers value.
type expEnv struct {
	csvDir  string
	seed    uint64
	workers int
}

// expLemmas (E1) reruns the paper's §3 walkthrough of Figure 1: every
// violated rule plus the realised gain of the constructive deviation.
func expLemmas(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E1: Figure 1 lemma walkthrough ==")
	s, err := chanalloc.ScenarioFigure1(chanalloc.TDMA(1))
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, v := range chanalloc.CheckAllLemmas(s.Game, s.Alloc) {
		gain := "-"
		if v.User >= 0 && v.ChannelB >= 0 && v.ChannelC >= 0 {
			delta, err := s.Game.BenefitOfMove(s.Alloc, v.User, v.ChannelB, v.ChannelC)
			if err == nil {
				gain = fmt.Sprintf("%+.4f", delta)
			}
		}
		rows = append(rows, []string{v.Rule, v.String(), gain})
	}
	table, err := textplot.Table([]string{"rule", "witness", "move gain"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e1_lemmas.csv", []string{"rule", "witness", "gain"}, rows)
}

// expTheorem1 (E2) compares the Theorem 1 checker against the exact
// best-response oracle on every allocation of a family of tiny games under
// constant R. Agreement must be total.
func expTheorem1(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E2: Theorem 1 characterisation vs exact oracle (constant R) ==")
	configs := []struct{ n, c, k int }{
		{2, 2, 2}, {2, 3, 2}, {2, 3, 3}, {3, 2, 2}, {3, 3, 2}, {4, 2, 2}, {2, 4, 2},
	}
	rows := [][]string{}
	for _, cfg := range configs {
		g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, chanalloc.TDMA(1))
		if err != nil {
			return err
		}
		nes, err := chanalloc.EnumerateNE(g, 10_000_000)
		if err != nil {
			return err
		}
		mismatches := 0
		// Cross-check the theorem checker on every NE (the exhaustive test
		// suite covers all profiles; here we keep the runtime sweep-friendly
		// by auditing NE only).
		for _, ne := range nes {
			if ok, _ := chanalloc.TheoremNE(g, ne); !ok {
				mismatches++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx%dx%d", cfg.n, cfg.c, cfg.k),
			fmt.Sprintf("%d", len(nes)),
			fmt.Sprintf("%d", mismatches),
		})
	}
	table, err := textplot.Table([]string{"game (NxCxk)", "oracle NE count", "theorem mismatches"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e2_theorem1.csv", []string{"game", "ne_count", "mismatches"}, rows)
}

// expPareto (E3) verifies Theorem 2 on tiny games: every enumerated NE is
// Pareto-optimal under constant R. The per-NE domination searches fan out
// over the engine.
func expPareto(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E3: Theorem 2 — NE Pareto-optimality (constant R) ==")
	configs := []struct{ n, c, k int }{
		{2, 2, 1}, {2, 2, 2}, {2, 3, 2}, {3, 2, 2},
	}
	rows := [][]string{}
	for _, cfg := range configs {
		g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, chanalloc.TDMA(1))
		if err != nil {
			return err
		}
		nes, err := chanalloc.EnumerateNE(g, 10_000_000)
		if err != nil {
			return err
		}
		domFlags, _, err := chanalloc.ParallelMap(len(nes), func(i int, _ *chanalloc.RNG) (bool, error) {
			imp, err := chanalloc.FindParetoImprovement(g, nes[i], 1e-9, 10_000_000)
			return imp != nil, err
		}, chanalloc.EngineWorkers(env.workers))
		if err != nil {
			return err
		}
		dominated := 0
		for _, d := range domFlags {
			if d {
				dominated++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx%dx%d", cfg.n, cfg.c, cfg.k),
			fmt.Sprintf("%d", len(nes)),
			fmt.Sprintf("%d", dominated),
		})
	}
	table, err := textplot.Table([]string{"game (NxCxk)", "NE count", "Pareto-dominated NE"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e3_pareto.csv", []string{"game", "ne_count", "dominated"}, rows)
}

// expAlg1 (E4) sweeps Algorithm 1 across sizes and tie-breaks, verifying
// the NE property and recording the welfare ratio against the all-placed
// optimum (1.0 under constant R whenever |N|k > |C|). The tie-break seeds
// run as engine jobs.
func expAlg1(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E4: Algorithm 1 NE property and welfare ratio ==")
	rows := [][]string{}
	for _, cfg := range []struct{ n, c, k int }{
		{7, 6, 4}, {16, 12, 8}, {64, 32, 16}, {10, 11, 3}, {25, 13, 5},
	} {
		for _, rate := range []chanalloc.RateFunc{
			chanalloc.TDMA(1),
			chanalloc.HarmonicRate(1, 0.3),
		} {
			g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, rate)
			if err != nil {
				return err
			}
			const seeds = 20
			neFlags, _, err := chanalloc.ParallelMap(seeds, func(j int, rng *chanalloc.RNG) (bool, error) {
				a, err := chanalloc.Algorithm1(g,
					chanalloc.WithTieBreak(chanalloc.TieRandom), chanalloc.WithSeed(rng.Uint64()))
				if err != nil {
					return false, err
				}
				return g.IsNashEquilibrium(a)
			}, chanalloc.EngineWorkers(env.workers), chanalloc.EngineSeed(env.seed))
			if err != nil {
				return err
			}
			neOK := 0
			for _, ne := range neFlags {
				if ne {
					neOK++
				}
			}
			a, err := chanalloc.Algorithm1(g)
			if err != nil {
				return err
			}
			ratio, err := chanalloc.PriceOfAnarchy(g, a)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				fmt.Sprintf("%dx%dx%d", cfg.n, cfg.c, cfg.k),
				rate.Name(),
				fmt.Sprintf("%d/%d", neOK, seeds),
				fmt.Sprintf("%.4f", ratio),
			})
		}
	}
	table, err := textplot.Table([]string{"game (NxCxk)", "rate", "NE runs", "welfare ratio"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e4_alg1.csv", []string{"game", "rate", "ne_runs", "welfare_ratio"}, rows)
}

// expFairShare (E5) validates the paper's equal-share assumption: the
// slot-level CSMA/CA simulator yields Jain index ≈ 1 across stations and
// total throughput within a few percent of Bianchi's model. One engine job
// per population size; the simulation seeds stay pinned to the published
// table.
func expFairShare(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E5: CSMA/CA fair share and model agreement ==")
	p := chanalloc.Bianchi1Mbps()
	populations := []int{1, 2, 4, 8, 16}
	rows, _, err := chanalloc.ParallelMap(len(populations), func(i int, _ *chanalloc.RNG) ([]string, error) {
		n := populations[i]
		sim, err := chanalloc.SimulateCSMA(p, n, 150_000, uint64(100+n))
		if err != nil {
			return nil, err
		}
		model, err := chanalloc.SolveDCF(p, n)
		if err != nil {
			return nil, err
		}
		jain, err := stats.JainIndex(sim.PerStation)
		if err != nil {
			return nil, err
		}
		relErr := (sim.Throughput - model.Throughput) / model.Throughput
		return []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", sim.Throughput),
			fmt.Sprintf("%.4f", model.Throughput),
			fmt.Sprintf("%+.2f%%", 100*relErr),
			fmt.Sprintf("%.5f", jain),
		}, nil
	}, chanalloc.EngineWorkers(env.workers))
	if err != nil {
		return err
	}
	table, err := textplot.Table(
		[]string{"stations", "sim Mbit/s", "Bianchi Mbit/s", "rel err", "Jain index"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e5_fairshare.csv",
		[]string{"n", "sim", "model", "rel_err", "jain"}, rows)
}

// expDynamics (E6) measures convergence of three decentralised processes
// from random starts: sequential best response, radio-greedy moves, and
// simultaneous best response with inertia 0.5 (full inertia oscillates).
// Each (game, process) cell is a RunBatch over the engine.
func expDynamics(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E6: dynamics convergence (sequential BR / radio-greedy / simultaneous p=0.5) ==")
	processes := []struct {
		name string
		proc chanalloc.DynamicsProcess
	}{
		{"seq-br", chanalloc.BestResponseProcess},
		{"radio-greedy", chanalloc.RadioGreedyProcess},
		{"simul-0.5", chanalloc.SimultaneousProcess},
	}
	rows := [][]string{}
	cell := 0
	for _, cfg := range []struct{ n, c, k int }{
		{4, 4, 2}, {8, 6, 3}, {16, 8, 4}, {32, 12, 6},
	} {
		g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, chanalloc.TDMA(1))
		if err != nil {
			return err
		}
		for _, p := range processes {
			const replicates = 25
			res, err := chanalloc.RunBatch(g, chanalloc.BatchSpec{
				Process:    p.proc,
				Inertia:    0.5,
				Replicates: replicates,
				Seed:       chanalloc.EngineJobSeed(env.seed, cell),
				Workers:    env.workers,
			})
			if err != nil {
				return err
			}
			cell++
			rows = append(rows, []string{
				fmt.Sprintf("%dx%dx%d", cfg.n, cfg.c, cfg.k),
				p.name,
				fmt.Sprintf("%d/%d", res.Converged, replicates),
				fmt.Sprintf("%.2f", res.MeanRounds),
				fmt.Sprintf("%.2f", res.MeanMoves),
			})
		}
	}
	table, err := textplot.Table(
		[]string{"game (NxCxk)", "process", "converged", "mean rounds", "mean moves"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e6_dynamics.csv", []string{"game", "process", "converged", "rounds", "moves"}, rows)
}

// expDist (E7) checks the distributed token ring: greedy devices reproduce
// the centralised Algorithm 1 exactly; best-response devices converge to a
// NE.
func expDist(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E7: distributed protocol vs centralised Algorithm 1 ==")
	rows := [][]string{}
	for _, cfg := range []struct{ n, c, k int }{
		{4, 4, 2}, {7, 6, 4}, {12, 8, 5},
	} {
		r := chanalloc.TDMA(1)
		g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, r)
		if err != nil {
			return err
		}
		greedy, err := chanalloc.RunDistributed(g, chanalloc.UniformPolicies(g.Users(),
			func(int) chanalloc.Policy { return &chanalloc.GreedyPolicy{} }))
		if err != nil {
			return err
		}
		central, err := chanalloc.Algorithm1(g)
		if err != nil {
			return err
		}
		br, err := chanalloc.RunDistributed(g, chanalloc.UniformPolicies(g.Users(),
			func(int) chanalloc.Policy { return &chanalloc.BestResponsePolicy{Rate: r} }))
		if err != nil {
			return err
		}
		brNE, err := g.IsNashEquilibrium(br.Alloc)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx%dx%d", cfg.n, cfg.c, cfg.k),
			fmt.Sprintf("%v", greedy.Alloc.Equal(central)),
			fmt.Sprintf("%d", greedy.Stats.Messages),
			fmt.Sprintf("%v", brNE),
			fmt.Sprintf("%d", br.Stats.Rounds),
		})
	}
	table, err := textplot.Table(
		[]string{"game (NxCxk)", "greedy == Algorithm 1", "messages", "BR ring NE", "BR rounds"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e7_dist.csv",
		[]string{"game", "greedy_matches", "messages", "br_ne", "br_rounds"}, rows)
}

// expBoundary (E8) sweeps the decay rate alpha of R(k) = 1/(1+alpha(k-1))
// and reports whether the Figure 4 exception NE survives the exact oracle.
// Theorem 1's conditions are rate-independent, so any "no" row is a
// sufficiency gap for that decay rate.
func expBoundary(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E8: decay boundary of Theorem 1 sufficiency (Figure 4 exception NE) ==")
	rows := [][]string{}
	for _, alpha := range []float64{0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0} {
		s, err := chanalloc.ScenarioFigure4(chanalloc.HarmonicRate(1, alpha))
		if err != nil {
			return err
		}
		thm, _ := chanalloc.TheoremNE(s.Game, s.Alloc)
		dev, err := s.Game.FindDeviation(s.Alloc, chanalloc.DefaultEps)
		if err != nil {
			return err
		}
		deviation, gain := "-", "-"
		if dev != nil {
			deviation = fmt.Sprintf("u%d: %v -> %v", dev.User+1, dev.Current, dev.Better)
			gain = fmt.Sprintf("%+.2e", dev.Gain)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%g", alpha),
			fmt.Sprintf("%v", thm),
			fmt.Sprintf("%v", dev == nil),
			fmt.Sprintf("%v", thm != (dev == nil)),
			deviation,
			gain,
		})
	}
	table, err := textplot.Table(
		[]string{"alpha", "Theorem 1", "exact oracle", "gap", "best deviation", "gain"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e8_boundary.csv",
		[]string{"alpha", "theorem", "oracle", "gap", "deviation", "gain"}, rows)
}

// expPoA (E9) measures the welfare ratio of the load-balanced NE against
// the all-placed and idle-allowed optima as the rate function decays.
func expPoA(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E9: price of anarchy of the balanced NE across rate decay ==")
	rows := [][]string{}
	g0 := struct{ n, c, k int }{7, 6, 4}
	for _, alpha := range []float64{0, 0.1, 0.25, 0.5, 1.0, 2.0} {
		r := chanalloc.HarmonicRate(1, alpha)
		g, err := chanalloc.NewGame(g0.n, g0.c, g0.k, r)
		if err != nil {
			return err
		}
		ne, err := chanalloc.Algorithm1(g)
		if err != nil {
			return err
		}
		welfare := g.Welfare(ne)
		allOpt, _ := chanalloc.OptimalWelfareAllPlaced(g)
		idleOpt, _ := chanalloc.OptimalWelfareIdleAllowed(g)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", alpha),
			fmt.Sprintf("%.4f", welfare),
			fmt.Sprintf("%.4f", allOpt),
			fmt.Sprintf("%.4f", welfare/allOpt),
			fmt.Sprintf("%.4f", idleOpt),
			fmt.Sprintf("%.4f", welfare/idleOpt),
		})
	}
	table, err := textplot.Table(
		[]string{"alpha", "NE welfare", "all-placed opt", "ratio", "idle-allowed opt", "ratio"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e9_poa.csv",
		[]string{"alpha", "welfare", "all_opt", "all_ratio", "idle_opt", "idle_ratio"}, rows)
}

// expLiteral (E10) quantifies the paper-literal Algorithm 1 rule: across
// random tie-break seeds, how often does the literal candidate set land off
// equilibrium, versus the corrected rule. The seed batch fans out over the
// engine.
func expLiteral(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E10: paper-literal vs corrected Algorithm 1 placement rule ==")
	rows := [][]string{}
	const seeds = 200
	for _, cfg := range []struct{ n, c, k int }{
		{2, 5, 4}, {3, 5, 4}, {5, 7, 5}, {7, 6, 4},
	} {
		g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, chanalloc.TDMA(1))
		if err != nil {
			return err
		}
		type verdict struct{ literalFail, correctedFail bool }
		verdicts, _, err := chanalloc.ParallelMap(seeds, func(j int, rng *chanalloc.RNG) (verdict, error) {
			var v verdict
			seed := rng.Uint64()
			lit, err := chanalloc.Algorithm1(g,
				chanalloc.WithTieBreak(chanalloc.TieRandom),
				chanalloc.WithSeed(seed),
				chanalloc.WithLiteralRule())
			if err != nil {
				return v, err
			}
			ne, err := g.IsNashEquilibrium(lit)
			if err != nil {
				return v, err
			}
			v.literalFail = !ne
			cor, err := chanalloc.Algorithm1(g,
				chanalloc.WithTieBreak(chanalloc.TieRandom),
				chanalloc.WithSeed(seed))
			if err != nil {
				return v, err
			}
			ne, err = g.IsNashEquilibrium(cor)
			if err != nil {
				return v, err
			}
			v.correctedFail = !ne
			return v, nil
		}, chanalloc.EngineWorkers(env.workers), chanalloc.EngineSeed(env.seed))
		if err != nil {
			return err
		}
		literalFail, correctedFail := 0, 0
		for _, v := range verdicts {
			if v.literalFail {
				literalFail++
			}
			if v.correctedFail {
				correctedFail++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx%dx%d", cfg.n, cfg.c, cfg.k),
			fmt.Sprintf("%.1f%%", 100*float64(literalFail)/seeds),
			fmt.Sprintf("%.1f%%", 100*float64(correctedFail)/seeds),
		})
	}
	table, err := textplot.Table(
		[]string{"game (NxCxk)", "literal rule non-NE", "corrected rule non-NE"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e10_literal.csv", []string{"game", "literal_fail", "corrected_fail"}, rows)
}

// expDistBatch (E12) is experiment E7 at scale: a full (game × policy-mix)
// grid of token-ring runs batched over the engine's ring task
// (RunDistributedRingBatch) instead of one RunLocal at a time. Greedy
// rings must still reproduce centralised Algorithm 1, best-response rings
// must still land on NE — now verified across the whole grid in one engine
// pass, with randomised-tie-break policies seeded from each run's private
// stream.
func expDistBatch(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E12: batched distributed protocol (game × policy-mix grid) ==")
	r := chanalloc.TDMA(1)
	games := []struct{ n, c, k int }{
		{4, 4, 2}, {5, 4, 3}, {7, 6, 4}, {10, 8, 4}, {12, 8, 5},
	}
	mixes := []struct {
		name     string
		policies func(users int) []string
	}{
		{"greedy", func(int) []string { return []string{"greedy"} }},
		{"best-response", func(int) []string { return []string{"bestresponse"} }},
		{"mixed", func(users int) []string {
			names := make([]string, users)
			for u := range names {
				names[u] = "bestresponse"
				if u%2 == 0 {
					names[u] = "greedy-random"
				}
			}
			return names
		}},
	}
	var specs []chanalloc.DistRingSpec
	gameObjs := make([]*chanalloc.Game, len(games))
	for gi, cfg := range games {
		g, err := chanalloc.NewGame(cfg.n, cfg.c, cfg.k, r)
		if err != nil {
			return err
		}
		gameObjs[gi] = g
		for _, mix := range mixes {
			specs = append(specs, chanalloc.DistRingSpec{
				Users: cfg.n, Channels: cfg.c, Radios: cfg.k,
				Rate:     chanalloc.DistRateSpec{Kind: "tdma", R0: 1},
				Policies: mix.policies(cfg.n),
			})
		}
	}
	runs, _, err := chanalloc.RunDistributedRingBatch(chanalloc.NewInProcessBackend(), specs,
		chanalloc.EngineSeed(env.seed), chanalloc.EngineWorkers(env.workers))
	if err != nil {
		return err
	}
	rows := [][]string{}
	messages := 0
	for i, run := range runs {
		gi, mi := i/len(mixes), i%len(mixes)
		g := gameObjs[gi]
		alloc, err := chanalloc.AllocFromMatrix(run.Matrix)
		if err != nil {
			return err
		}
		ne, err := g.IsNashEquilibrium(alloc)
		if err != nil {
			return err
		}
		matches := "-"
		if mixes[mi].name == "greedy" {
			central, err := chanalloc.Algorithm1(g)
			if err != nil {
				return err
			}
			matches = fmt.Sprintf("%v", alloc.Equal(central))
		}
		messages += run.Messages
		rows = append(rows, []string{
			fmt.Sprintf("%dx%dx%d", games[gi].n, games[gi].c, games[gi].k),
			mixes[mi].name,
			fmt.Sprintf("%v", run.Converged),
			fmt.Sprintf("%v", ne),
			matches,
			fmt.Sprintf("%d", run.Rounds),
			fmt.Sprintf("%d", run.Messages),
		})
	}
	table, err := textplot.Table(
		[]string{"game (NxCxk)", "policy mix", "converged", "NE", "greedy == Alg 1", "rounds", "messages"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintf(out, "batch: %d runs, %d protocol messages\n\n", len(runs), messages)
	return writeCSV(env.csvDir, "e12_distbatch.csv",
		[]string{"game", "mix", "converged", "ne", "greedy_matches", "rounds", "messages"}, rows)
}

// expHetero (E11) extends the model to heterogeneous radio budgets and
// checks which of the paper's structural results survive: full deployment,
// load balancing (δ <= 1), the NE property of sequential greedy
// allocation — and how the NE welfare compares to the heterogeneous
// all-placed optimum (price of anarchy). The seed batch fans out over the
// engine.
func expHetero(out io.Writer, env expEnv) error {
	fmt.Fprintln(out, "== E11: heterogeneous radio budgets (beyond the paper's uniform k) ==")
	rows := [][]string{}
	cases := []struct {
		channels int
		budgets  []int
	}{
		{4, []int{4, 2, 1}},
		{6, []int{4, 4, 2, 2, 1}},
		{8, []int{8, 1, 1, 1}},
		{5, []int{3, 3, 3, 2, 2, 1}},
	}
	for _, cfg := range cases {
		for _, rate := range []chanalloc.RateFunc{
			chanalloc.TDMA(1),
			chanalloc.HarmonicRate(1, 0.5),
		} {
			g, err := chanalloc.NewHeteroGame(cfg.channels, cfg.budgets, rate)
			if err != nil {
				return err
			}
			const seeds = 20
			type verdict struct{ ne, balanced bool }
			verdicts, _, err := chanalloc.ParallelMap(seeds, func(j int, rng *chanalloc.RNG) (verdict, error) {
				var v verdict
				a, err := chanalloc.Algorithm1(g, chanalloc.WithTieBreak(chanalloc.TieRandom), chanalloc.WithSeed(rng.Uint64()))
				if err != nil {
					return v, err
				}
				v.ne, err = g.IsNashEquilibrium(a)
				if err != nil {
					return v, err
				}
				v.balanced = chanalloc.LoadBalanced(a)
				return v, nil
			}, chanalloc.EngineWorkers(env.workers), chanalloc.EngineSeed(env.seed))
			if err != nil {
				return err
			}
			neOK, balanced := 0, true
			for _, v := range verdicts {
				if v.ne {
					neOK++
				}
				if !v.balanced {
					balanced = false
				}
			}
			// Welfare of the deterministic greedy NE against the
			// heterogeneous all-placed optimum: the price of anarchy beyond
			// uniform k.
			a, err := chanalloc.Algorithm1(g)
			if err != nil {
				return err
			}
			opt, _ := chanalloc.OptimalWelfareAllPlaced(g)
			welfare := g.Welfare(a)
			// Exhaustive Pareto-optimality of the greedy NE, where the
			// strategy space is small enough: the grid walk under a tight
			// cap on the profile count. Deployments over the cap report "-"
			// rather than paying an exponential walk.
			paretoOpt := "-"
			w, perr := chanalloc.FindParetoImprovement(g, a, 1e-9, 200_000)
			switch {
			case perr == nil:
				paretoOpt = fmt.Sprintf("%v", w == nil)
			case !strings.Contains(perr.Error(), "profiles"):
				return perr
			}
			rows = append(rows, []string{
				fmt.Sprintf("C=%d k=%v", cfg.channels, cfg.budgets),
				rate.Name(),
				fmt.Sprintf("%d/%d", neOK, seeds),
				fmt.Sprintf("%v", balanced),
				fmt.Sprintf("%.4f", welfare),
				fmt.Sprintf("%.4f", opt),
				fmt.Sprintf("%.4f", welfare/opt),
				paretoOpt,
			})
		}
	}
	table, err := textplot.Table(
		[]string{"deployment", "rate", "NE runs", "δ<=1 always", "NE welfare", "all-placed opt", "PoA", "Pareto-opt"}, rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	fmt.Fprintln(out)
	return writeCSV(env.csvDir, "e11_hetero.csv",
		[]string{"deployment", "rate", "ne_runs", "balanced", "welfare", "all_opt", "poa", "pareto_opt"}, rows)
}

// writeCSV writes rows to csvDir/name when csvDir is set.
func writeCSV(csvDir, name string, headers []string, rows [][]string) error {
	return writeFile(csvDir, name, func(w io.Writer) error {
		return textplot.WriteCSV(w, headers, rows)
	})
}

// writeFile creates csvDir/name and fills it with write when csvDir is set.
// A regular file already there is removed first rather than truncated: on
// ext4, closing a file truncated to zero forces its data out, which made a
// rerun into a reused directory cost tens of milliseconds per CSV. The
// close error is returned, so a write the file system failed to complete
// cannot leave a short CSV behind a successful run.
func writeFile(csvDir, name string, write func(io.Writer) error) (err error) {
	if csvDir == "" {
		return nil
	}
	path := filepath.Join(csvDir, name)
	if fi, statErr := os.Lstat(path); statErr == nil && fi.Mode().IsRegular() {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("replacing %s: %w", name, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", name, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", name, cerr)
		}
	}()
	return write(f)
}
