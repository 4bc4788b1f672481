package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
	"github.com/multiradio/chanalloc/internal/workload"
)

func TestRunAllocate(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-mode", "allocate", "-users", "7", "-channels", "6", "-radios", "4"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Theorem 1 verdict: NE=true",
		"Best-response oracle: NE=true",
		"ratio 1.0000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllocateLiteral(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-mode", "allocate", "-literal", "-tie", "random", "-seed", "3",
		"-users", "2", "-channels", "5", "-radios", "4"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	// Output should render regardless of whether the literal run is a NE.
	if !strings.Contains(b.String(), "Best-response oracle") {
		t.Error("missing oracle verdict")
	}
}

func TestRunVerifyFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "matrix.txt")
	matrix := "# figure 1 example\n1 1 1 1 0\n1 0 1 0 1\n1 2 0 1 0\n1 0 0 1 0\n"
	if err := os.WriteFile(path, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"-mode", "verify", "-users", "4", "-channels", "5", "-radios", "4",
		"-in", path}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"lemma1", "lemma2", "lemma3", "NE=false"} {
		if !strings.Contains(out, want) {
			t.Errorf("verify output missing %q", want)
		}
	}
}

// TestRunDynamics pins the whole -mode dynamics report of both processes,
// the random start, the convergence line and the Φ(start) -> Φ(final)
// line included, against testdata goldens.
func TestRunDynamics(t *testing.T) {
	for _, process := range []string{"br", "greedy"} {
		var b strings.Builder
		err := run([]string{"-mode", "dynamics", "-process", process,
			"-users", "9", "-channels", "6", "-radios", "3", "-seed", "7"}, &b)
		if err != nil {
			t.Fatalf("%s: %v", process, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "dynamics_"+process+"_9u6c3r_seed7.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s report diverged from golden:\n--- got ---\n%s--- want ---\n%s", process, got, want)
		}
	}
}

func TestRunDistributed(t *testing.T) {
	for _, policy := range []string{"br", "greedy"} {
		var b strings.Builder
		err := run([]string{"-mode", "distributed", "-policy", policy,
			"-users", "4", "-channels", "4", "-radios", "2"}, &b)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(b.String(), "converged=true") {
			t.Errorf("%s ring did not converge:\n%s", policy, b.String())
		}
	}
}

func TestRunScenario(t *testing.T) {
	// Pinned paper scenario: audited as-is (fig1 is deliberately not a NE).
	var b strings.Builder
	if err := run([]string{"-mode", "scenario", "-scenario", "fig1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NE=false") {
		t.Errorf("fig1 audit should report non-NE:\n%s", b.String())
	}

	// Generated scenario: the greedy allocation runs first.
	b.Reset()
	if err := run([]string{"-mode", "scenario", "-scenario", "cognitive:4,6,2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Best-response oracle: NE=true") {
		t.Errorf("cognitive allocation should be a NE:\n%s", b.String())
	}

	// Heterogeneous-budget scenario.
	b.Reset()
	if err := run([]string{"-mode", "scenario", "-scenario", "hetero:5,3,2,1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Load-balanced") || !strings.Contains(out, "u1 (k=3)") {
		t.Errorf("hetero audit incomplete:\n%s", out)
	}

	// The registry-driven listing names every family with usage text.
	b.Reset()
	if err := run([]string{"-mode", "scenario", "-scenario", "list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig4", "random:N,C,k[,seed]", "hetero:C,k1,k2,...", "mesh", "cognitive"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("scenario listing missing %q:\n%s", want, b.String())
		}
	}

	// Errors: missing and unknown scenario names.
	if err := run([]string{"-mode", "scenario"}, &b); err == nil {
		t.Error("missing -scenario should error")
	}
	if err := run([]string{"-mode", "scenario", "-scenario", "nope"}, &b); err == nil {
		t.Error("unknown scenario should error")
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "nope"}, &b); err == nil {
		t.Error("unknown mode should error")
	}
	if err := run([]string{"-rate", "nope:1"}, &b); err == nil {
		t.Error("unknown rate should error")
	}
	if err := run([]string{"-tie", "nope"}, &b); err == nil {
		t.Error("unknown tie should error")
	}
	if err := run([]string{"-users", "0"}, &b); err == nil {
		t.Error("invalid game should error")
	}
	if err := run([]string{"-mode", "dynamics", "-process", "nope"}, &b); err == nil {
		t.Error("unknown process should error")
	}
}

func TestParseRate(t *testing.T) {
	good := map[string]string{
		"tdma:5":             "tdma(5)",
		"harmonic:2:0.5":     "harmonic(2,α=0.5)",
		"geometric:2:0.9":    "geometric(2,β=0.9)",
		"csma-practical":     "monotone(csma-practical)",
		"csma-optimal":       "monotone(csma-optimal)",
		"csma-optimal:1mbps": "monotone(csma-optimal)",
	}
	for spec, wantName := range good {
		r, err := ParseRate(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if r.Name() != wantName {
			t.Errorf("%s: name %q, want %q", spec, r.Name(), wantName)
		}
		if err := ratefn.Validate(r, 16); err != nil {
			t.Errorf("%s violates contract: %v", spec, err)
		}
	}
	bad := []string{
		"", "tdma", "tdma:x", "tdma:-1", "harmonic:1", "harmonic:1:-1",
		"geometric:1:0", "geometric:1:2", "csma-practical:foo",
		"csma-practical:1mbps:extra", "wat:1",
	}
	for _, spec := range bad {
		if _, err := ParseRate(spec); err == nil {
			t.Errorf("%q should not parse", spec)
		}
	}
}

func TestReadMatrixErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readMatrix(empty); err == nil {
		t.Error("empty matrix should error")
	}
	badValues := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badValues, []byte("1 x 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readMatrix(badValues); err == nil {
		t.Error("non-integer values should error")
	}
	if _, err := readMatrix(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
}

// TestRunRefusesIllegalInput: a verify matrix that does not fit the game,
// and game flags past workload.MaxCells, exit with an error before any
// audit, drawing or table allocation. Without the checks the first matrix
// panics in the lemma audit, the second exhausts memory drawing 9e9
// occupancy levels, the third prints "no lemma violations" before failing,
// and the two flag sets panic in makeslice or exhaust memory.
func TestRunRefusesIllegalInput(t *testing.T) {
	dims := []string{"-users", "2", "-channels", "2", "-radios", "2"}
	for _, tc := range []struct {
		name   string
		matrix string // verify input; empty for the flag cases
		args   []string
		want   string
	}{
		{"extra-row", "1 0\n0 1\n1 1\n", dims, "allocation is 3x2, game is 2x2"},
		{"huge-cell", "9000000000 0\n1 1\n", dims, "user 0 deploys more than its budget"},
		{"over-budget", "5 5\n1 1\n", dims, "user 0 deploys more than its budget"},
		{"wrapping-cells", "4611686018427387904 4611686018427387904\n0 0\n", dims, "overflows the matrix total"},
		{"huge-channels", "", []string{"-users", "2", "-channels", "4611686018427387904", "-radios", "4611686018427387904"}, "scenario too large"},
		{"huge-grid", "", []string{"-users", "100000", "-channels", "100000", "-radios", "1"}, "scenario too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.matrix != "" {
				path := filepath.Join(t.TempDir(), "matrix.txt")
				if err := os.WriteFile(path, []byte(tc.matrix), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append([]string{"-mode", "verify", "-in", path}, args...)
			}
			var b strings.Builder
			err := run(args, &b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run error %v, want one containing %q", err, tc.want)
			}
			if tc.matrix == "" && !errors.Is(err, workload.ErrTooLarge) {
				t.Fatalf("run error %v does not wrap workload.ErrTooLarge", err)
			}
			if b.Len() != 0 {
				t.Fatalf("run printed before refusing:\n%s", b.String())
			}
		})
	}
}

// FuzzVerifyMatrix feeds arbitrary bytes to -mode verify as the matrix
// file of a 2-user, 3-channel, 2-radio game. No input may panic, and the
// run may allocate no more than a fixed budget plus a multiple of the
// input size: a matrix that fits the game is small, and anything else
// must be refused before it is audited or drawn.
func FuzzVerifyMatrix(f *testing.F) {
	for _, seed := range []string{
		"1 1 0\n0 1 1\n",
		"1 0\n0 1\n1 1\n",
		"9000000000 0\n1 1\n",
		"5 5\n1 1\n",
		"# comment\n\n2 0 0\n0 0 2\n",
		"4611686018427387904 4611686018427387904 0\n0 0 0\n",
		"9223372036854775807 9223372036854775807 2\n0 0 0\n",
		"-1 0 0\n0 0 0\n",
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "matrix.txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = run([]string{"-mode", "verify", "-users", "2", "-channels", "3", "-radios", "2", "-in", path}, io.Discard)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(data)); got > limit {
			t.Fatalf("verify of a %d-byte matrix allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
