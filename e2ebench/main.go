// Command e2ebench is the repository's end-to-end benchmark. It drives the
// two end-to-end paths of the system through its public APIs over real
// loopback TCP: an allocd churn event (frame in → mutate → re-equilibrate
// → welfare → verify → frame out) and a cluster sweep job (enqueue →
// dispatch → execute → journal → fan-in). Every run checks the program's
// outputs and exits non-zero when they are wrong.
//
// Build and run it from the repository root:
//
//	bash e2ebench/run.sh --workload churn-c4-n8 --seed 2006 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced. With
// --trace 1 it does a fixed amount of work, times the calls into each
// layer from its own code (the program itself carries no tracing), prints
// the per-layer metrics and writes its spans under .bench_out/. The last
// line of output is a JSON object: correct, attempted, failed, metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// options are one run's command-line settings.
type options struct {
	seed    uint64
	seconds int
	traced  bool
	root    string // the checkout the benchmark runs in
	outDir  string // where traced runs write their spans
}

// defaultSeed is the input seed of a run that names none. BENCHMARK.json's
// command passes it explicitly, so a later --seed overrides it.
const defaultSeed = 2006

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "input seed; the same seed gives the same inputs; the last --seed wins")
	seconds := fs.Int("seconds", 10, "length of the timed phase; sizes the traced run's fixed work")
	trace := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	out := fs.String("out", ".bench_out", "directory for span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "e2ebench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	outDir := *out
	if !filepath.IsAbs(outDir) {
		outDir = filepath.Join(root, outDir)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, root: root, outDir: outDir}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout, o.traced); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "e2ebench: %s: correctness gate failed (%d problems)\n", w.name, len(rep.problems))
		return 1
	}
	return 0
}

// measure runs one workload in the requested mode.
func measure(w *workload, o options) (*report, error) {
	switch {
	case w.kind == "churn" && !o.traced:
		return runChurn(w, o)
	case w.kind == "churn":
		return traceChurn(w, o)
	case !o.traced:
		return runSweep(w, o)
	default:
		return traceSweep(w, o)
	}
}
