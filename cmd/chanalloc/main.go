// Command chanalloc is the command-line interface to the multi-radio
// channel allocation library.
//
// Modes:
//
//	chanalloc -mode allocate -users 7 -channels 6 -radios 4 -rate tdma:54
//	    Run the paper's Algorithm 1 and report the equilibrium.
//
//	chanalloc -mode verify -users 4 -channels 5 -radios 4 -in matrix.txt
//	    Audit an explicit strategy matrix against Lemmas 1-4, Theorem 1
//	    and the exact best-response oracle. The matrix file holds one row
//	    of whitespace-separated radio counts per user ('#' comments
//	    allowed); use '-' to read stdin.
//
//	chanalloc -mode dynamics -users 8 -channels 6 -radios 3 -process br
//	    Start from a random allocation and run best-response ("br") or
//	    radio-greedy ("greedy") dynamics to convergence.
//
//	chanalloc -mode distributed -users 6 -channels 5 -radios 3 -policy br
//	    Run the distributed token-ring protocol in-process and verify the
//	    resulting equilibrium.
//
//	chanalloc -mode scenario -scenario fig4
//	chanalloc -mode scenario -scenario random:8,6,3 -rate harmonic:1:0.5
//	chanalloc -mode scenario -scenario list
//	    Load a workload from the scenario registry and audit it (pinned
//	    allocations are audited as-is; generated scenarios run the greedy
//	    allocation first). "-scenario list" prints every registered family
//	    with its usage grammar and description — the listing comes from
//	    the registry itself, so it stays current as families are added.
//	    The registry is open: library users can add families with
//	    chanalloc.RegisterScenario and resolve them here by name.
//
// Rate functions (-rate): tdma:R0 | harmonic:R0:alpha | geometric:R0:beta |
// csma-practical | csma-optimal (802.11b parameters) |
// csma-practical:1mbps | csma-optimal:1mbps (Bianchi's 1 Mbit/s set).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chanalloc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.mode == "scenario" {
		return scenarioMode(out, cfg)
	}
	// The strategy matrix holds users·channels cells, and NewGame tabulates
	// R up front over Σk_i <= users·channels loads: the scenario grammar's
	// bound keeps both finite.
	if err := workload.CheckCells(cfg.users, cfg.channels); err != nil {
		return err
	}
	g, err := chanalloc.NewGame(cfg.users, cfg.channels, cfg.radios, cfg.rate)
	if err != nil {
		return err
	}
	switch cfg.mode {
	case "allocate":
		return allocate(out, g, cfg)
	case "verify":
		return verify(out, g, cfg)
	case "dynamics":
		return dynamicsMode(out, g, cfg)
	case "distributed":
		return distributed(out, g, cfg)
	default:
		return fmt.Errorf("unknown mode %q (want allocate, verify, dynamics, distributed or scenario)", cfg.mode)
	}
}

// scenarioMode resolves a workload from the scenario registry and audits
// it: pinned allocations as-is, generated scenarios after a greedy
// allocation run.
func scenarioMode(out io.Writer, cfg *config) error {
	if cfg.scenario == "list" {
		fmt.Fprintln(out, "Registered scenario families:")
		for _, f := range chanalloc.ScenarioFamilies() {
			fmt.Fprintf(out, "  %-34s %s\n", f.Usage, f.Description)
		}
		return nil
	}
	if cfg.scenario == "" {
		return fmt.Errorf("-mode scenario needs -scenario <name> (or '-scenario list'); registered: %s",
			strings.Join(familyUsages(), ", "))
	}
	s, err := chanalloc.ScenarioByName(cfg.scenario, cfg.rate)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Scenario %s: %s\n", s.Name, s.Description)

	a := s.Alloc
	if a == nil {
		opts := []chanalloc.Algorithm1Option{
			chanalloc.WithTieBreak(cfg.tie), chanalloc.WithSeed(cfg.seed),
		}
		if a, err = chanalloc.Algorithm1(s.Game, opts...); err != nil {
			return err
		}
	}
	if s.Game.Radios() == 0 {
		// Mixed budgets: the paper's Theorem 1 audit does not apply.
		return reportMixedBudgets(out, s.Game, a)
	}
	return report(out, s.Game, a)
}

// reportMixedBudgets prints the audit of a game whose users own different
// radio budgets: the allocation, the best-response NE verdict, load
// balance and per-user utilities.
func reportMixedBudgets(out io.Writer, g *chanalloc.Game, a *chanalloc.Alloc) error {
	fmt.Fprintln(out, "\nAllocation:")
	fmt.Fprint(out, chanalloc.OccupancyDiagram(a))
	fmt.Fprintln(out)
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nBest-response oracle: NE=%v\n", ne)
	fmt.Fprintf(out, "Load-balanced (δ<=1): %v\n", chanalloc.LoadBalanced(a))
	fmt.Fprintln(out, "Per-user utilities:")
	for i, u := range g.Utilities(a) {
		fmt.Fprintf(out, "  u%d (k=%d): %.4f\n", i+1, g.Budget(i), u)
	}
	fmt.Fprintf(out, "Welfare: %.4f\n", g.Welfare(a))
	return nil
}

func allocate(out io.Writer, g *chanalloc.Game, cfg *config) error {
	opts := []chanalloc.Algorithm1Option{
		chanalloc.WithTieBreak(cfg.tie),
		chanalloc.WithSeed(cfg.seed),
	}
	if cfg.literal {
		opts = append(opts, chanalloc.WithLiteralRule())
	}
	a, err := chanalloc.Algorithm1(g, opts...)
	if err != nil {
		return err
	}
	return report(out, g, a)
}

func verify(out io.Writer, g *chanalloc.Game, cfg *config) error {
	matrix, err := readMatrix(cfg.in)
	if err != nil {
		return err
	}
	a, err := chanalloc.AllocFromMatrix(matrix)
	if err != nil {
		return err
	}
	if err := g.CheckAlloc(a); err != nil {
		return err
	}
	fmt.Fprintln(out, "Lemma audit:")
	violations := chanalloc.CheckAllLemmas(g, a)
	if len(violations) == 0 {
		fmt.Fprintln(out, "  no lemma violations")
	}
	for _, v := range violations {
		fmt.Fprintf(out, "  violated: %s\n", v)
	}
	return report(out, g, a)
}

func dynamicsMode(out io.Writer, g *chanalloc.Game, cfg *config) error {
	start := chanalloc.RandomAlloc(g, cfg.seed)
	fmt.Fprintln(out, "Random start:")
	fmt.Fprintln(out, start.String())

	var (
		res chanalloc.DynamicsResult
		err error
	)
	opts := []chanalloc.DynamicsOption{chanalloc.WithDynamicsSeed(cfg.seed)}
	switch cfg.process {
	case "br":
		res, err = chanalloc.RunBestResponse(g, start, opts...)
	case "greedy":
		res, err = chanalloc.RunRadioGreedy(g, start, opts...)
	default:
		return fmt.Errorf("unknown process %q (want br or greedy)", cfg.process)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nConverged: %v in %d rounds, %d moves\n", res.Converged, res.Rounds, res.Moves)
	fmt.Fprintf(out, "Potential: %.6f -> %.6f\n", g.Potential(start), g.Potential(res.Final))
	return report(out, g, res.Final)
}

func distributed(out io.Writer, g *chanalloc.Game, cfg *config) error {
	policies := chanalloc.UniformPolicies(g.Users(), func(int) chanalloc.Policy {
		if cfg.policy == "greedy" {
			return &chanalloc.GreedyPolicy{Tie: cfg.tie, Seed: cfg.seed}
		}
		return &chanalloc.BestResponsePolicy{Rate: g.View().Frozen()}
	})
	res, err := chanalloc.RunDistributed(g, policies)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Protocol: converged=%v rounds=%d moves=%d messages=%d\n",
		res.Stats.Converged, res.Stats.Rounds, res.Stats.Moves, res.Stats.Messages)
	return report(out, g, res.Alloc)
}

// report prints the standard allocation summary: diagram, matrix,
// utilities, NE verdicts and welfare.
func report(out io.Writer, g *chanalloc.Game, a *chanalloc.Alloc) error {
	fmt.Fprintln(out, "\nAllocation:")
	fmt.Fprint(out, chanalloc.OccupancyDiagram(a))
	fmt.Fprintln(out)
	fmt.Fprintln(out, a.String())

	thm, v := chanalloc.TheoremNE(g, a)
	fmt.Fprintf(out, "\nTheorem 1 verdict: NE=%v", thm)
	if v != nil {
		fmt.Fprintf(out, " (%s)", v)
	}
	fmt.Fprintln(out)
	oracle, err := g.IsNashEquilibrium(a)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Best-response oracle: NE=%v\n", oracle)

	fmt.Fprintln(out, "Per-user utilities:")
	for i, u := range g.Utilities(a) {
		fmt.Fprintf(out, "  u%d: %.4f\n", i+1, u)
	}
	welfare := g.Welfare(a)
	opt, _ := chanalloc.OptimalWelfareAllPlaced(g)
	fmt.Fprintf(out, "Welfare: %.4f (all-placed optimum %.4f", welfare, opt)
	if opt > 0 {
		fmt.Fprintf(out, ", ratio %.4f", welfare/opt)
	}
	fmt.Fprintln(out, ")")
	return nil
}

type config struct {
	mode                    string
	users, channels, radios int
	rate                    chanalloc.RateFunc
	tie                     chanalloc.TieBreak
	seed                    uint64
	literal                 bool
	in                      string
	process                 string
	policy                  string
	scenario                string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("chanalloc", flag.ContinueOnError)
	mode := fs.String("mode", "allocate", "allocate | verify | dynamics | distributed | scenario")
	users := fs.Int("users", 7, "number of users |N|")
	channels := fs.Int("channels", 6, "number of channels |C|")
	radios := fs.Int("radios", 4, "radios per user k (k <= |C|)")
	rateSpec := fs.String("rate", "tdma:1", "rate function specification")
	tieSpec := fs.String("tie", "first", "Algorithm 1 tie-breaking: first | random | last")
	seed := fs.Uint64("seed", 0, "RNG seed for random tie-breaking / starts")
	literal := fs.Bool("literal", false, "use the paper-literal placement rule (see EXPERIMENTS.md E10)")
	in := fs.String("in", "-", "matrix input for -mode verify ('-' = stdin)")
	process := fs.String("process", "br", "dynamics process: br | greedy")
	policy := fs.String("policy", "br", "distributed device policy: br | greedy")
	scenario := fs.String("scenario", "",
		"scenario for -mode scenario: "+strings.Join(familyUsages(), " | ")+
			", or 'list' to print every family with its description")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	rate, err := ParseRate(*rateSpec)
	if err != nil {
		return nil, err
	}
	tie, err := parseTie(*tieSpec)
	if err != nil {
		return nil, err
	}
	return &config{
		mode:     *mode,
		users:    *users,
		channels: *channels,
		radios:   *radios,
		rate:     rate,
		tie:      tie,
		seed:     *seed,
		literal:  *literal,
		in:       *in,
		process:  *process,
		policy:   *policy,
		scenario: *scenario,
	}, nil
}

func parseTie(s string) (chanalloc.TieBreak, error) {
	switch s {
	case "first":
		return chanalloc.TieFirst, nil
	case "random":
		return chanalloc.TieRandom, nil
	case "last":
		return chanalloc.TieLast, nil
	default:
		return 0, fmt.Errorf("unknown tie break %q (want first, random or last)", s)
	}
}

// familyUsages lists every registered scenario family's usage grammar —
// each entry is a resolvable -scenario value (with parameters filled in).
func familyUsages() []string {
	fams := chanalloc.ScenarioFamilies()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Usage
	}
	return out
}

// ParseRate parses a rate-function specification; see the package comment
// for the grammar. The implementation lives in the chanalloc facade so
// every tool (chanalloc, allocd) accepts the same specs.
func ParseRate(spec string) (chanalloc.RateFunc, error) {
	return chanalloc.ParseRate(spec)
}

// readMatrix parses a whitespace-separated integer grid; '-' means stdin.
func readMatrix(path string) ([][]int, error) {
	var r io.Reader
	if path == "-" || path == "" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("opening matrix: %w", err)
		}
		defer f.Close()
		r = f
	}
	var matrix [][]int
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		row := make([]int, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("matrix value %q: %w", f, err)
			}
			row = append(row, v)
		}
		matrix = append(matrix, row)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("reading matrix: %w", err)
	}
	if len(matrix) == 0 {
		return nil, fmt.Errorf("empty matrix input")
	}
	return matrix, nil
}
