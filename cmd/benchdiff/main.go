// Command benchdiff compares two `go test -bench` outputs, benchstat
// style, and flags regressions. It attributes an end-to-end change to one
// layer (the best-response DP, the Eq. 7 screen, NE enumeration, ...):
//
//	go test -run xxx -bench X -count 10 ./pkg > parent.txt   # at the parent commit
//	go test -run xxx -bench X -count 10 ./pkg > change.txt   # at the change
//	go run ./cmd/benchdiff parent.txt change.txt
//
// Results are keyed by (pkg, name, procs): the `pkg:` line above a result
// scopes it, and the lines a -count run repeats become that key's
// samples. Every other `key: value` config line (goos, goarch, cpu, ...)
// must agree between the two files, or benchdiff refuses to compare them.
//
// A key's time is judged only when both sides have at least 5 samples and
// every sample ran more than one iteration: a one-iteration time
// (-benchtime=1x) is a smoke run, not a measurement. A judged time is a
// REGRESSION when the median ns/op grew by more than -threshold and a
// two-sided Mann–Whitney U test of the samples gives p < 0.05. Allocs/op
// is compared on medians at any sample count: growth past -threshold, or
// any allocation where the parent measured zero, is an ALLOC-REGRESSION.
// Keys present on one side only are listed as added or removed, never
// flagged: a renamed benchmark is not a regression.
//
// Exit status: 0 when nothing is flagged, 1 when a regression is flagged,
// 2 on a usage or input error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"github.com/multiradio/chanalloc/internal/stats"
)

const (
	// alpha is the significance level of the time test.
	alpha = 0.05
	// minSamples is the per-side sample count below which a time is not
	// judged; 5-vs-5 is the smallest design whose exact p can reach 0.05
	// with room to spare (2/252 at full separation).
	minSamples = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// entry is one parsed benchmark result line.
type entry struct {
	pkg string
	// name drops the "Benchmark" prefix and the -P GOMAXPROCS suffix.
	name    string
	procs   int
	iters   int64
	nsPerOp float64
	// hasAllocs distinguishes a measured zero allocs/op from a line
	// without memory reporting.
	allocs    float64
	hasAllocs bool
}

// benchFile is one parsed `go test -bench` output.
type benchFile struct {
	// config holds every config line but pkg, which scopes entries.
	config  map[string]string
	entries []entry
	// skipped counts lines starting with "Benchmark" that did not parse.
	skipped int
}

type key struct {
	pkg, name string
	procs     int
}

// samples gathers one key's repeated results.
type samples struct {
	ns, allocs []float64
	minIters   int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.20, "flag median ns/op and allocs/op increases above this fraction (0.20 = +20%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if fs.NArg() != 2 {
		return fail(fmt.Errorf("want exactly two files: benchdiff [-threshold f] parent.txt change.txt"))
	}
	if !(*threshold >= 0) || math.IsInf(*threshold, 1) {
		return fail(fmt.Errorf("-threshold %v: want a finite fraction >= 0", *threshold))
	}
	var files [2]benchFile
	for i, path := range fs.Args() {
		var err error
		if files[i], err = readBench(path); err != nil {
			return fail(err)
		}
	}
	if err := sameConfig(files[0].config, files[1].config); err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "benchdiff %s -> %s (threshold %+.0f%%, p < %.2f; time judged at n >= %d and iters > 1)\n",
		fs.Arg(0), fs.Arg(1), *threshold*100, alpha, minSamples)
	for i, f := range files {
		fmt.Fprintf(stdout, "%s: %d result line(s), %d skipped Benchmark line(s)\n", fs.Arg(i), len(f.entries), f.skipped)
	}
	for _, k := range sortedKeys(files[0].config) {
		fmt.Fprintf(stdout, "%s: %s\n", k, files[0].config[k])
	}

	old, cur := group(files[0].entries), group(files[1].entries)
	keys := make([]key, 0, len(old)+len(cur))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range cur {
		if old[k] == nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.procs < b.procs
	})

	regressions := 0
	for i, k := range keys {
		if (i == 0 || k.pkg != keys[i-1].pkg) && k.pkg != "" {
			fmt.Fprintf(stdout, "pkg: %s\n", k.pkg)
		}
		name := k.name
		if k.procs > 1 {
			name = fmt.Sprintf("%s-%d", k.name, k.procs)
		}
		o, c := old[k], cur[k]
		switch {
		case o == nil:
			fmt.Fprintf(stdout, "  %-56s %12s    %9.0f ns/op  (added)\n", name, "", median(c.ns))
		case c == nil:
			fmt.Fprintf(stdout, "  %-56s %12.0f    %9s ns/op  (removed)\n", name, median(o.ns), "")
		default:
			line, flagged := compare(o, c, *threshold)
			regressions += flagged
			fmt.Fprintf(stdout, "  %-56s %s\n", name, line)
		}
	}
	fmt.Fprintf(stdout, "%d benchmark(s) compared, %d regression(s)\n", len(keys), regressions)
	if regressions > 0 {
		return 1
	}
	return 0
}

// compare renders one key present on both sides and counts its flags.
func compare(o, c *samples, threshold float64) (string, int) {
	oldNs, newNs := median(o.ns), median(c.ns)
	var b strings.Builder
	fmt.Fprintf(&b, "%12.0f -> %9.0f ns/op", oldNs, newNs)
	delta := math.NaN()
	if oldNs > 0 {
		delta = newNs/oldNs - 1
		fmt.Fprintf(&b, "  %+7.1f%%", delta*100)
	}
	flagged := 0
	if len(o.ns) >= minSamples && len(c.ns) >= minSamples && o.minIters > 1 && c.minIters > 1 {
		_, p, err := stats.MannWhitneyU(o.ns, c.ns)
		if err != nil {
			panic(err) // unreachable: both sides hold >= minSamples finite values
		}
		fmt.Fprintf(&b, "  p=%.3f n=%d+%d", p, len(o.ns), len(c.ns))
		if delta > threshold && p < alpha {
			b.WriteString("  REGRESSION")
			flagged++
		}
	} else {
		fmt.Fprintf(&b, "  (time not judged: n=%d+%d, iters>=%d+%d)", len(o.ns), len(c.ns), o.minIters, c.minIters)
	}
	if len(o.allocs) > 0 && len(c.allocs) > 0 {
		oldA, newA := median(o.allocs), median(c.allocs)
		fmt.Fprintf(&b, "  allocs %.0f -> %.0f", oldA, newA)
		if (oldA == 0 && newA > 0) || (oldA > 0 && newA/oldA-1 > threshold) {
			b.WriteString("  ALLOC-REGRESSION")
			flagged++
		}
	}
	return b.String(), flagged
}

// group collects each key's samples in input order.
func group(entries []entry) map[key]*samples {
	out := map[key]*samples{}
	for _, e := range entries {
		k := key{e.pkg, e.name, e.procs}
		s := out[k]
		if s == nil {
			s = &samples{minIters: e.iters}
			out[k] = s
		}
		s.ns = append(s.ns, e.nsPerOp)
		s.minIters = min(s.minIters, e.iters)
		if e.hasAllocs {
			s.allocs = append(s.allocs, e.allocs)
		}
	}
	return out
}

func median(xs []float64) float64 {
	m, err := stats.Median(xs)
	if err != nil {
		panic(err) // unreachable: every key holds at least one sample
	}
	return m
}

// sameConfig refuses a comparison across different setups.
func sameConfig(a, b map[string]string) error {
	for _, m := range []map[string]string{a, b} {
		for _, k := range sortedKeys(m) {
			if a[k] != b[k] {
				return fmt.Errorf("config line %q differs: %q vs %q; results from different setups do not compare", k, a[k], b[k])
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readBench(path string) (benchFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchFile{}, err
	}
	defer f.Close()
	bf, err := parseBench(f)
	if err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.entries) == 0 {
		return bf, fmt.Errorf("%s: no benchmark results", path)
	}
	return bf, nil
}

// parseBench reads a raw `go test -bench` stream. Headers, PASS/ok
// trailers and test failures are ignored; config lines set the package
// scope or the file's config, which may not change mid-file.
func parseBench(r io.Reader) (benchFile, error) {
	bf := benchFile{config: map[string]string{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := configLine(line); ok {
			if k == "pkg" {
				pkg = v
			} else if was, seen := bf.config[k]; seen && was != v {
				return bf, fmt.Errorf("config line %q changes mid-file (%q, then %q)", k, was, v)
			} else {
				bf.config[k] = v
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		e, ok := parseLine(line)
		if !ok {
			bf.skipped++
			continue
		}
		e.pkg = pkg
		bf.entries = append(bf.entries, e)
	}
	if err := sc.Err(); err != nil {
		return bf, fmt.Errorf("reading benchmark output: %w", err)
	}
	resolveProcsSuffixes(bf.entries)
	return bf, nil
}

// configLine reports whether line is a `key: value` config line: the key
// starts with a lower-case letter and holds no space or upper-case letter
// (the Go benchmark format's rule).
func configLine(line string) (key, value string, ok bool) {
	key, value, found := strings.Cut(line, ":")
	if !found || key == "" || (value != "" && value[0] != ' ' && value[0] != '\t') {
		return "", "", false
	}
	for i, r := range key {
		if (i == 0 && !unicode.IsLower(r)) || unicode.IsSpace(r) || unicode.IsUpper(r) {
			return "", "", false
		}
	}
	return key, strings.TrimSpace(value), true
}

// parseLine parses one result line
//
//	BenchmarkEnumerateNEParallel/workers8-16  	  42	  123456 ns/op	  9 B/op	 1 allocs/op
//
// into name, iterations, ns/op and allocs/op; further "value unit" pairs
// are read past. ok is false unless iters >= 1 and ns/op is present,
// finite and non-negative. A non-finite or negative allocs/op is not a
// measurement: it is dropped and the line kept.
func parseLine(line string) (entry, bool) {
	fields := strings.Fields(line)
	// Minimum shape: name, iters, value, "ns/op".
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters < 1 {
		return entry{}, false
	}
	e := entry{name: strings.TrimPrefix(fields[0], "Benchmark"), procs: 1, iters: iters, nsPerOp: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return entry{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			e.nsPerOp = v
		case "allocs/op":
			e.allocs, e.hasAllocs = v, v >= 0 && !math.IsInf(v, 1)
		}
	}
	if !(e.nsPerOp >= 0) || math.IsInf(e.nsPerOp, 1) {
		return entry{}, false // missing, negative, NaN or +Inf
	}
	return e, true
}

// procsSuffix splits a trailing "-<digits>" GOMAXPROCS marker off the last
// path segment of a benchmark name.
func procsSuffix(name string) (base string, procs int, ok bool) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || strings.Contains(name[i:], "/") {
		return name, 0, false
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 0, false
	}
	return name[:i], procs, true
}

// resolveProcsSuffixes decides, for the whole stream at once, whether
// trailing "-<digits>" on benchmark names are GOMAXPROCS markers to strip.
// `go test` appends the marker to every benchmark when GOMAXPROCS > 1 (or a
// -cpu list entry > 1) and to none when GOMAXPROCS is 1 — so a subtest name
// that legitimately ends in digits (BenchmarkDist/n-2 under GOMAXPROCS=1)
// only looks like a marker line by line, never stream-wide. The rules:
//
//   - every entry suffixed (GOMAXPROCS > 1, or -cpu without 1): strip each
//     entry's own suffix;
//   - mixed stream (-cpu list containing 1): strip a suffix only when its
//     base name also appears unsuffixed in the stream — the cpu=1 twin that
//     proves the trailing digits are a marker, not part of the name;
//   - no suffixes at all: nothing to do.
//
// One shape stays ambiguous: a GOMAXPROCS=1 stream in which every name
// ends in digits (a -bench filter can produce one, e.g. only Dist/n-2 and
// Dist/n-4) is byte-identical to a -cpu run of the base names, and is read
// as the latter. Both files of a comparison are read the same way, so
// their keys still match; widen the -bench pattern to keep a literal name.
func resolveProcsSuffixes(entries []entry) {
	allSuffixed := true
	bare := map[string]bool{}
	for i := range entries {
		if _, _, ok := procsSuffix(entries[i].name); !ok {
			allSuffixed = false
			bare[entries[i].name] = true
		}
	}
	for i := range entries {
		base, procs, ok := procsSuffix(entries[i].name)
		if ok && (allSuffixed || bare[base]) {
			entries[i].name, entries[i].procs = base, procs
		}
	}
}
