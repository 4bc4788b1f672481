package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeBench drops a `go test -bench` text fixture and returns its path.
func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stream renders a -count run of one package: a header, then one result
// line per sample for each benchmark (name includes any -P suffix).
func stream(pkg string, lines ...string) string {
	return "goos: linux\ngoarch: amd64\npkg: " + pkg + "\ncpu: Example CPU @ 2.00GHz\n" +
		strings.Join(lines, "\n") + "\nPASS\nok  \t" + pkg + "\t1.234s\n"
}

// results renders one result line per ns/op sample.
func results(name string, iters int, allocs string, ns ...float64) []string {
	var out []string
	for _, v := range ns {
		line := fmt.Sprintf("Benchmark%s \t%d\t%g ns/op", name, iters, v)
		if allocs != "" {
			line += "\t" + allocs + " allocs/op"
		}
		out = append(out, line)
	}
	return out
}

// diff runs benchdiff on two fixture streams and returns its exit code
// and output.
func diff(t *testing.T, parent, change string, flags ...string) (int, string) {
	t.Helper()
	args := append(flags, writeBench(t, "parent.txt", parent), writeBench(t, "change.txt", change))
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

const pkg = "github.com/multiradio/chanalloc"

var (
	base = []float64{1000, 1010, 990, 1005, 995}
	// slow30 is base +30%: every sample above every base sample.
	slow30 = []float64{1300, 1313, 1287, 1306, 1293}
	// slow15 is base +15%, also fully separated.
	slow15 = []float64{1150, 1161, 1138, 1155, 1144}
)

// TestRunFlagsRegressions: a fully separated 30% slowdown at -count 5 is
// flagged (exact p = 2/252); a fully separated 15% one stays under the
// default 20% threshold.
func TestRunFlagsRegressions(t *testing.T) {
	parent := stream(pkg, append(results("Slow-2", 1000, "", base...), results("Mild-2", 1000, "", base...)...)...)
	change := stream(pkg, append(results("Slow-2", 1000, "", slow30...), results("Mild-2", 1000, "", slow15...)...)...)
	code, got := diff(t, parent, change)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, got)
	}
	if !regexp.MustCompile(`Slow-2 .*\+30\.0%  p=0\.008 n=5\+5  REGRESSION`).MatchString(got) {
		t.Fatalf("30%% slowdown not flagged:\n%s", got)
	}
	if strings.Count(got, "REGRESSION") != 1 || !strings.Contains(got, "2 benchmark(s) compared, 1 regression(s)") {
		t.Fatalf("15%% slowdown wrongly flagged:\n%s", got)
	}
	if !strings.Contains(got, "pkg: "+pkg) || !strings.Contains(got, "cpu: Example CPU @ 2.00GHz") {
		t.Fatalf("package or config header missing:\n%s", got)
	}
}

// TestRunThresholdFlag: the single flag moves the time and allocs gates.
func TestRunThresholdFlag(t *testing.T) {
	parent := stream(pkg, results("Mild-2", 1000, "", base...)...)
	change := stream(pkg, results("Mild-2", 1000, "", slow15...)...)
	if code, got := diff(t, parent, change, "-threshold", "0.10"); code != 1 || !strings.Contains(got, "REGRESSION") {
		t.Fatalf("+15%% at -threshold 0.10: exit %d, want 1:\n%s", code, got)
	}
	if code, got := diff(t, parent, change, "-threshold", "0.50"); code != 0 {
		t.Fatalf("+15%% at -threshold 0.50: exit %d, want 0:\n%s", code, got)
	}
}

// TestRunOverlapNotFlagged: medians 25% apart are not enough when the
// samples overlap so much that the U test cannot tell them apart.
func TestRunOverlapNotFlagged(t *testing.T) {
	parent := stream(pkg, results("Noisy-2", 1000, "", 800, 1000, 1600, 900, 1700)...)
	change := stream(pkg, results("Noisy-2", 1000, "", 1250, 700, 1800, 850, 1500)...)
	code, got := diff(t, parent, change)
	if code != 0 || strings.Contains(got, "REGRESSION") {
		t.Fatalf("overlapping samples flagged (exit %d):\n%s", code, got)
	}
	m := regexp.MustCompile(`\+25\.0%  p=([0-9.]+) n=5\+5`).FindStringSubmatch(got)
	if m == nil || m[1] < "0.050" {
		t.Fatalf("want a +25%% median shift with p >= 0.05:\n%s", got)
	}
}

// TestRunNeverJudgesThinTime: a time with fewer than 5 samples a side, or
// from one-iteration runs, is shown but never flagged, however far it
// moved.
func TestRunNeverJudgesThinTime(t *testing.T) {
	parent := stream(pkg, append(results("Few-2", 1000, "", base[:4]...), results("OneShot-2", 1, "", base...)...)...)
	change := stream(pkg, append(results("Few-2", 1000, "", slow30[:4]...), results("OneShot-2", 1, "", slow30...)...)...)
	code, got := diff(t, parent, change)
	if code != 0 || strings.Contains(got, "REGRESSION") {
		t.Fatalf("thin time flagged (exit %d):\n%s", code, got)
	}
	if !strings.Contains(got, "(time not judged: n=4+4, iters>=1000+1000)") ||
		!strings.Contains(got, "(time not judged: n=5+5, iters>=1+1)") {
		t.Fatalf("unjudged times not labelled:\n%s", got)
	}
}

// TestRunFlagsAllocRegressions: losing a 0 allocs/op steady state is
// flagged even from single one-iteration runs; growth inside the
// threshold is reported, not flagged; lines without memory reporting get
// no allocs column.
func TestRunFlagsAllocRegressions(t *testing.T) {
	parent := stream(pkg,
		"BenchmarkBestResponseDP/C6_k4-2 \t1\t300 ns/op\t0 B/op\t0 allocs/op",
		"BenchmarkDynamics-2 \t1\t1000 ns/op\t10 allocs/op",
		"BenchmarkNoMem-2 \t1\t100 ns/op")
	change := stream(pkg,
		"BenchmarkBestResponseDP/C6_k4-2 \t1\t305 ns/op\t96 B/op\t3 allocs/op",
		"BenchmarkDynamics-2 \t1\t1010 ns/op\t11 allocs/op",
		"BenchmarkNoMem-2 \t1\t101 ns/op")
	code, got := diff(t, parent, change)
	if code != 1 || strings.Count(got, "ALLOC-REGRESSION") != 1 {
		t.Fatalf("exit %d, want 1 with one alloc regression:\n%s", code, got)
	}
	if !regexp.MustCompile(`BestResponseDP/C6_k4-2 .*allocs 0 -> 3  ALLOC-REGRESSION`).MatchString(got) {
		t.Fatalf("0 -> 3 allocs not flagged:\n%s", got)
	}
	if !strings.Contains(got, "allocs 10 -> 11\n") {
		t.Fatalf("+10%% allocs should be reported, not flagged:\n%s", got)
	}
	if regexp.MustCompile(`NoMem-2 .*allocs`).MatchString(got) {
		t.Fatalf("alloc column fabricated for NoMem:\n%s", got)
	}
}

// TestRunAllocThreshold: alloc growth obeys the same -threshold.
func TestRunAllocThreshold(t *testing.T) {
	parent := stream(pkg, "BenchmarkDynamics-2 \t1\t1000 ns/op\t10 allocs/op")
	change := stream(pkg, "BenchmarkDynamics-2 \t1\t1010 ns/op\t11 allocs/op")
	if code, got := diff(t, parent, change, "-threshold", "0.05"); code != 1 || !strings.Contains(got, "ALLOC-REGRESSION") {
		t.Fatalf("+10%% allocs at -threshold 0.05: exit %d, want 1:\n%s", code, got)
	}
}

// TestRunSelfDiffClean: a file diffed against itself flags nothing, added
// and removed keys are listed but never flagged.
func TestRunSelfDiffClean(t *testing.T) {
	parent := stream(pkg, append(results("Same-2", 1000, "0", base...), results("Removed-2", 1000, "", base...)...)...)
	change := stream(pkg, append(results("Same-2", 1000, "0", base...), results("Added-2", 1000, "", base...)...)...)
	code, got := diff(t, parent, change)
	if code != 0 || strings.Contains(got, "REGRESSION") {
		t.Fatalf("exit %d, want 0:\n%s", code, got)
	}
	if !strings.Contains(got, "p=1.000 n=5+5  allocs 0 -> 0") ||
		!strings.Contains(got, "(added)") || !strings.Contains(got, "(removed)") {
		t.Fatalf("self diff or added/removed rows wrong:\n%s", got)
	}
}

// TestRunPackageScopedKeys: the same benchmark name in two pkg blocks is
// two keys of 5 samples each, not one key of 10.
func TestRunPackageScopedKeys(t *testing.T) {
	s := stream(pkg, results("ParetoImprovement/x-2", 1000, "", base...)...) +
		stream(pkg+"/internal/core", results("ParetoImprovement/x-2", 1000, "", slow30...)...)
	bf, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	groups := group(bf.entries)
	if len(groups) != 2 {
		t.Fatalf("%d keys, want 2: %+v", len(groups), groups)
	}
	for _, p := range []string{pkg, pkg + "/internal/core"} {
		if g := groups[key{p, "ParetoImprovement/x", 2}]; g == nil || len(g.ns) != 5 {
			t.Fatalf("pkg %s: samples %+v, want 5", p, g)
		}
	}
	code, got := diff(t, s, s)
	if code != 0 || strings.Count(got, "ParetoImprovement/x-2") != 2 || !strings.Contains(got, "pkg: "+pkg+"/internal/core") {
		t.Fatalf("exit %d, want two clean rows in two pkg blocks:\n%s", code, got)
	}
}

// TestRunRefusesConfigMismatch: results from a different cpu (or any
// other config line but pkg) are not compared.
func TestRunRefusesConfigMismatch(t *testing.T) {
	parent := stream(pkg, results("X-2", 1000, "", base...)...)
	change := strings.Replace(parent, "cpu: Example CPU @ 2.00GHz", "cpu: Other CPU", 1)
	code, got := diff(t, parent, change)
	if code != 2 || !strings.Contains(got, `config line "cpu" differs`) {
		t.Fatalf("exit %d, want 2 on a cpu mismatch:\n%s", code, got)
	}
	if code, got := diff(t, parent, "goos: linux\n"+parent); code != 0 {
		t.Fatalf("a repeated identical config line is not a mismatch: exit %d\n%s", code, got)
	}
	if _, err := parseBench(strings.NewReader(parent + "cpu: Other CPU\n")); err == nil {
		t.Fatal("a config line changing mid-file should error")
	}
}

func TestRunErrors(t *testing.T) {
	ok := writeBench(t, "ok.txt", stream(pkg, results("X-2", 1000, "", base...)...))
	empty := writeBench(t, "empty.txt", "goos: linux\nPASS\n")
	missing := filepath.Join(t.TempDir(), "missing.txt")
	for _, args := range [][]string{
		{ok},
		{ok, ok, ok},
		{ok, missing},
		{ok, empty},
		{"-threshold", "-0.1", ok, ok},
		{"-threshold", "NaN", ok, ok},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) exit %d, want 2:\n%s%s", args, code, out.String(), errOut.String())
		}
	}
}

// TestBadFlag: an unknown flag is a usage error, exit 2, with nothing
// written to stdout.
func TestBadFlag(t *testing.T) {
	ok := writeBench(t, "ok.txt", stream(pkg, results("X-2", 1000, "", base...)...))
	var out, errOut strings.Builder
	if code := run([]string{"-nope", ok, ok}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit %d, want 2:\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("bad flag wrote to stdout:\n%s", out.String())
	}
}

// sample mimics a real `go test -bench` stream at GOMAXPROCS=16: headers,
// sub-benchmarks, memory metrics, trailers — and, crucially, every
// benchmark line carrying the -16 suffix, including a subtest whose own
// name ends in digits.
const sample = `goos: linux
goarch: amd64
pkg: github.com/multiradio/chanalloc
cpu: Example CPU @ 2.00GHz
BenchmarkFigure1LemmaAudit-16         	  361010	      3246 ns/op
BenchmarkEnumerateNEParallel/workers1-16  	      18	  63850033 ns/op	 1024 B/op	      12 allocs/op
BenchmarkEnumerateNEParallel/workers16-16 	     100	  10485934 ns/op
BenchmarkDist/n-2-16 	 5	 200 ns/op
PASS
ok  	github.com/multiradio/chanalloc	12.279s
--- FAIL: TestSomething
FAIL
`

func TestRunParsesBenchStream(t *testing.T) {
	bf, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if bf.config["goos"] != "linux" || bf.config["cpu"] != "Example CPU @ 2.00GHz" || bf.config["pkg"] != "" {
		t.Fatalf("config wrong: %v", bf.config)
	}
	if len(bf.entries) != 4 || bf.skipped != 0 {
		t.Fatalf("%d entries, %d skipped, want 4 and 0: %+v", len(bf.entries), bf.skipped, bf.entries)
	}
	first := bf.entries[0]
	if first.pkg != pkg || first.name != "Figure1LemmaAudit" || first.procs != 16 ||
		first.iters != 361010 || first.nsPerOp != 3246 || first.hasAllocs {
		t.Fatalf("first entry wrong: %+v", first)
	}
	workers1 := bf.entries[1]
	if workers1.name != "EnumerateNEParallel/workers1" || workers1.procs != 16 ||
		!workers1.hasAllocs || workers1.allocs != 12 {
		t.Fatalf("sub-benchmark wrong: %+v", workers1)
	}
	if bf.entries[2].name != "EnumerateNEParallel/workers16" {
		t.Fatalf("third entry wrong: %+v", bf.entries[2])
	}
	// The GOMAXPROCS marker is stripped even when the subtest's own name
	// ends in digits: only the final -16 goes, Dist/n-2 stays.
	if d := bf.entries[3]; d.name != "Dist/n-2" || d.procs != 16 || d.nsPerOp != 200 {
		t.Fatalf("digit-suffixed subtest wrong: %+v", d)
	}
}

// sampleNoProcs is the same suite at GOMAXPROCS=1: no line carries a
// marker, so a subtest name ending in -<digits> must survive intact.
const sampleNoProcs = `goos: linux
goarch: amd64
BenchmarkFigure1LemmaAudit 	  361010	      3246 ns/op
BenchmarkDist/n-2 	 5	 200 ns/op
PASS
`

func TestRunKeepsDigitNamesWithoutProcsSuffix(t *testing.T) {
	bf, err := parseBench(strings.NewReader(sampleNoProcs))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.entries) != 2 {
		t.Fatalf("%d entries, want 2: %+v", len(bf.entries), bf.entries)
	}
	if e := bf.entries[0]; e.name != "Figure1LemmaAudit" || e.procs != 1 {
		t.Fatalf("plain entry wrong: %+v", e)
	}
	if e := bf.entries[1]; e.name != "Dist/n-2" || e.procs != 1 || e.nsPerOp != 200 {
		t.Fatalf("digit-suffixed name must survive a GOMAXPROCS=1 run: %+v", e)
	}
}

func TestResolveProcsSuffixes(t *testing.T) {
	for _, tc := range []struct {
		desc      string
		names     []string
		wantNames []string
		wantProcs []int
	}{
		{
			"all suffixed: strip",
			[]string{"A-8", "B/sub-8", "Dist/n-2-8"},
			[]string{"A", "B/sub", "Dist/n-2"},
			[]int{8, 8, 8},
		},
		{
			"one unsuffixed line without a twin: keep everything",
			[]string{"A-8", "B"},
			[]string{"A-8", "B"},
			[]int{1, 1},
		},
		{
			"cpu-list runs strip per line",
			[]string{"A-2", "A-4"},
			[]string{"A", "A"},
			[]int{2, 4},
		},
		{
			"-cpu 1,4: the bare twin proves A-4's suffix is a marker",
			[]string{"A", "A-4", "Dist/n-2"},
			[]string{"A", "A", "Dist/n-2"},
			[]int{1, 4, 1},
		},
		{
			"empty stream",
			nil, nil, nil,
		},
	} {
		entries := make([]entry, len(tc.names))
		for i, n := range tc.names {
			entries[i] = entry{name: n, procs: 1}
		}
		resolveProcsSuffixes(entries)
		for i := range entries {
			if entries[i].name != tc.wantNames[i] || entries[i].procs != tc.wantProcs[i] {
				t.Errorf("%s: entry %d = %+v, want name %q procs %d",
					tc.desc, i, entries[i], tc.wantNames[i], tc.wantProcs[i])
			}
		}
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"PASS",
		"ok  	github.com/multiradio/chanalloc	12.279s",
		"--- FAIL: TestSomething",
		"BenchmarkBroken-8 notanint 123 ns/op",
		"BenchmarkNoUnit-8 	 5",
		"BenchmarkNoNs-8 	 5	 12 B/op", // pairs but no ns/op
		"BenchmarkOdd-8 	 5	 12",       // value without unit
	} {
		if e, ok := parseLine(line); ok {
			t.Errorf("%q parsed as %+v, want rejection", line, e)
		}
	}
}

// TestParseLineHardening: a line whose iterations or ns/op are not a
// measurement is rejected; a non-finite extra metric is dropped without
// losing the line.
func TestParseLineHardening(t *testing.T) {
	for _, tc := range []struct {
		line       string
		ok         bool
		hasAllocs  bool
		wantAllocs float64
	}{
		{"BenchmarkX-2\t10\t5 ns/op\tNaN x/op", true, false, 0},
		{"BenchmarkX-2\t10\t5 ns/op\t+Inf allocs/op", true, false, 0},
		{"BenchmarkX-2\t10\t5 ns/op\tNaN allocs/op", true, false, 0},
		{"BenchmarkX-2\t10\t5 ns/op\t-1 allocs/op", true, false, 0},
		{"BenchmarkX-2\t10\t5 ns/op\t2 allocs/op", true, true, 2},
		{"BenchmarkX-2\t-3\t5 ns/op", false, false, 0},
		{"BenchmarkX-2\t0\t5 ns/op", false, false, 0},
		{"BenchmarkX-2\t10\t-Inf ns/op", false, false, 0},
		{"BenchmarkX-2\t10\t+Inf ns/op", false, false, 0},
		{"BenchmarkX-2\t10\tNaN ns/op", false, false, 0},
		{"BenchmarkX-2\t10\t-5 ns/op", false, false, 0},
	} {
		e, ok := parseLine(tc.line)
		if ok != tc.ok || e.hasAllocs != tc.hasAllocs || (tc.hasAllocs && e.allocs != tc.wantAllocs) {
			t.Errorf("%q parsed as %+v ok=%v, want ok=%v hasAllocs=%v", tc.line, e, ok, tc.ok, tc.hasAllocs)
		}
	}
	bf, err := parseBench(strings.NewReader("BenchmarkX-2\t10\t5 ns/op\tNaN x/op\nBenchmarkX-2\t-3\t5 ns/op\nBenchmarkY-2\t10\t-Inf ns/op\n"))
	if err != nil || len(bf.entries) != 1 || bf.skipped != 2 {
		t.Fatalf("parseBench: %d entries, %d skipped, err %v; want 1, 2, nil", len(bf.entries), bf.skipped, err)
	}
}

func TestParseLineRecordsZeroAllocs(t *testing.T) {
	e, ok := parseLine("BenchmarkBestResponseDP/C6_k4-16 	 7836070	 304.6 ns/op	       0 B/op	       0 allocs/op")
	if !ok {
		t.Fatal("line should parse")
	}
	if !e.hasAllocs || e.allocs != 0 {
		t.Fatalf("zero allocs/op must be recorded explicitly: %+v", e)
	}
}

// FuzzParseBench: parsing never panics, and every accepted entry is a
// measurement — at least one iteration, finite non-negative ns/op.
func FuzzParseBench(f *testing.F) {
	f.Add(sample)
	f.Add(sampleNoProcs)
	f.Add("BenchmarkX-2\t10\t5 ns/op\tNaN x/op\nBenchmarkX-2\t-3\t-Inf ns/op\n")
	f.Add("pkg: a\nBenchmarkA-4\t1\t0 ns/op\t0 allocs/op\npkg: b\nBenchmarkA\t9\t1e308 ns/op\n")
	f.Fuzz(func(t *testing.T, s string) {
		bf, err := parseBench(strings.NewReader(s))
		if err != nil {
			return
		}
		for _, e := range bf.entries {
			if e.iters < 1 || !(e.nsPerOp >= 0) || math.IsInf(e.nsPerOp, 0) {
				t.Fatalf("accepted a non-measurement %+v from %q", e, s)
			}
			if e.hasAllocs && (!(e.allocs >= 0) || math.IsInf(e.allocs, 0)) {
				t.Fatalf("accepted a non-finite allocs/op %+v from %q", e, s)
			}
		}
	})
}
