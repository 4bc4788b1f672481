package main

import (
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc"
)

// TestMain lets the test binary double as the engine-worker binary: when
// the process backend re-execs it, it serves sweep-experiment jobs instead
// of running tests (the task registration lives in main.go's init, shared
// by both roles).
func TestMain(m *testing.M) {
	chanalloc.RunEngineWorkerIfRequested()
	os.Exit(m.Run())
}

// fastExperiments are the ones cheap enough to run in unit tests; the heavy
// ones (literal, fairshare) get dedicated smoke tests below.
var fastExperiments = []string{"lemmas", "theorem1", "pareto", "dynamics", "dist", "boundary", "poa", "distbatch",
	"fig1", "fig2", "fig3", "fig3-80211b", "fig4", "fig5"}

func TestFastExperiments(t *testing.T) {
	for _, exp := range fastExperiments {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"-exp", exp}, &b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), "==") {
				t.Fatalf("no table emitted:\n%s", b.String())
			}
		})
	}
}

func TestExperimentCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-exp", "boundary", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e8_boundary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "alpha,") {
		t.Fatalf("unexpected CSV header: %q", string(data[:20]))
	}
}

// TestPinnedCSVBytes pins CSVs to known bytes, one SHA-256 per file: the
// figure experiments' CSVs as the paper's figures have been written since
// they were first reproduced (fig2 writes none), and the CSVs of the
// experiments that run the canonical orbit walk (E2, E11) and the Pareto
// search (E3). The pinned bytes do not depend on -seed.
func TestPinnedCSVBytes(t *testing.T) {
	want := map[string]string{
		"figure1.csv":     "30eb6830c2689e87c864214d6a703c8234f91d21f5699b69fe03461eb333daaf",
		"figure3.csv":     "668d0275f31739a820ab7e0a8f8c199cf0c48034adb602b1f07184908ad35bed",
		"figure4.csv":     "153dea0d0007c49b61c1516f710928470c26bab677e3ad2a69b05f7184c86740",
		"figure5.csv":     "d5bde6e333300c74ecd9050ce362f352e2246b0cefe8669336fe3d1ed7f6d3ed",
		"e2_theorem1.csv": "372bf6cf530eec47639cafd431b0101410bb7fe21b843a423912ff65e2ff53f9",
		"e3_pareto.csv":   "600fcc4380f888952dfee7990af0ebfbc162aaaf083f09ec8448980e2ff1381c",
		"e11_hetero.csv":  "c763194acc2d711cb538caf623bc26acb0b5907f1cbfb69bab6a3a103939f651",
	}
	got := map[string]string{}
	for _, exp := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "theorem1", "pareto", "hetero"} {
		_, csvs := sweepRun(t, exp, 0, 1)
		for name, data := range csvs {
			got[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(data)))
		}
	}
	if len(got) != len(want) {
		t.Errorf("wrote %d CSVs %v, want %d", len(got), got, len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], sum)
		}
	}
}

// TestFigureVerdicts checks what the figures say: Figures 4 and 5 are NE
// by both checkers, and each Figure 3 variant names its PHY.
func TestFigureVerdicts(t *testing.T) {
	for exp, wants := range map[string][]string{
		"fig4":        {"Theorem 1 verdict: NE=true", "Best-response oracle: NE=true"},
		"fig5":        {"Theorem 1 verdict: NE=true", "Best-response oracle: NE=true"},
		"fig3":        {"bianchi PHY", "practical CSMA/CA"},
		"fig3-80211b": {"80211b PHY", "practical CSMA/CA"},
	} {
		var b strings.Builder
		if err := run([]string{"-exp", exp}, &b); err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s output missing %q", exp, want)
			}
		}
	}
}

func TestBoundaryFindsGap(t *testing.T) {
	// The E8 headline: a sufficiency gap exists for every alpha > 0 on the
	// Figure 4 exception NE.
	var b strings.Builder
	if err := run([]string{"-exp", "boundary"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "true") {
		t.Fatal("boundary experiment found no gap at all")
	}
	lines := strings.Split(out, "\n")
	// The alpha=0 row must have no gap.
	for _, line := range lines {
		if strings.HasPrefix(line, "0 ") && strings.Contains(line, "true   ") {
			if !strings.Contains(line, "false") {
				t.Fatalf("alpha=0 row should show no gap: %q", line)
			}
		}
	}
}

func TestTheorem1NoMismatches(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "theorem1"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "x") && strings.HasSuffix(strings.TrimSpace(line), "1") &&
			!strings.Contains(line, "0") {
			t.Fatalf("possible mismatch row: %q", line)
		}
	}
}

func TestHeavyExperiments(t *testing.T) {
	// alg1, fairshare and hetero are the experiments whose tables carry
	// NE-run columns; together they take a fraction of a second, so they
	// run under -short too.
	for _, exp := range []string{"alg1", "fairshare", "hetero"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"-exp", exp}, &b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, "==") {
				t.Fatalf("no table emitted:\n%s", out)
			}
			// Every NE-run column must be full: the paper's algorithm (and
			// its hetero generalisation) never misses.
			if strings.Contains(out, "NE runs") && strings.Contains(out, "19/20") {
				t.Fatalf("an allocation run missed NE:\n%s", out)
			}
		})
	}
}

func TestFairShareAgreesWithModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	var b strings.Builder
	if err := run([]string{"-exp", "fairshare"}, &b); err != nil {
		t.Fatal(err)
	}
	// All Jain index cells start with 0.99 or 1.0.
	for _, line := range strings.Split(b.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 5 && fields[0] != "stations" && !strings.HasPrefix(fields[0], "-") {
			jain := fields[4]
			if !strings.HasPrefix(jain, "0.99") && !strings.HasPrefix(jain, "1.0") {
				t.Fatalf("fair share violated: %q", line)
			}
		}
	}
}

// sweepRun executes one sweep invocation and returns its stdout plus the
// byte content of every CSV it wrote. extraArgs append to the flag list
// (backend selection and the like).
func sweepRun(t *testing.T, exp string, seed uint64, workers int, extraArgs ...string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	var b strings.Builder
	err := run(append([]string{
		"-exp", exp,
		"-seed", fmt.Sprint(seed),
		"-workers", fmt.Sprint(workers),
		"-out", dir,
	}, extraArgs...), &b)
	if err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		csvs[e.Name()] = string(data)
	}
	return b.String(), csvs
}

// TestWorkersDoNotChangeOutput is the engine determinism contract at the
// CLI surface: same -seed, any -workers => byte-identical stdout and CSVs.
// It covers every randomised, engine-sharded experiment (the deterministic
// ones trivially satisfy it).
func TestWorkersDoNotChangeOutput(t *testing.T) {
	for _, exp := range []string{"theorem1", "alg1", "dynamics", "literal", "hetero", "fig3-sim"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			const seed = 7
			baseOut, baseCSVs := sweepRun(t, exp, seed, 1)
			for _, workers := range []int{4, runtime.NumCPU()} {
				gotOut, gotCSVs := sweepRun(t, exp, seed, workers)
				if gotOut != baseOut {
					t.Fatalf("workers=%d changed stdout:\n--- workers=1\n%s\n--- workers=%d\n%s",
						workers, baseOut, workers, gotOut)
				}
				if len(gotCSVs) != len(baseCSVs) || len(baseCSVs) == 0 {
					t.Fatalf("workers=%d wrote %d CSVs, want %d", workers, len(gotCSVs), len(baseCSVs))
				}
				for name, want := range baseCSVs {
					if gotCSVs[name] != want {
						t.Fatalf("workers=%d changed %s", workers, name)
					}
				}
			}
		})
	}
}

// TestProcessBackendDoesNotChangeOutput is the backend-conformance contract
// at the CLI surface: same -seed, -backend process with any -shards =>
// stdout and CSVs byte-identical to the in-process run. Covered experiments
// span the randomised engine-sharded paths (theorem1, dynamics) and the
// batched protocol grid (distbatch).
func TestProcessBackendDoesNotChangeOutput(t *testing.T) {
	for _, exp := range []string{"theorem1", "dynamics", "distbatch"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			const seed = 7
			baseOut, baseCSVs := sweepRun(t, exp, seed, 2)
			for _, shards := range []int{1, 2} {
				gotOut, gotCSVs := sweepRun(t, exp, seed, 2,
					"-backend", "process", "-shards", fmt.Sprint(shards))
				if gotOut != baseOut {
					t.Fatalf("process backend (shards=%d) changed stdout:\n--- inprocess\n%s\n--- process\n%s",
						shards, baseOut, gotOut)
				}
				if len(gotCSVs) != len(baseCSVs) || len(baseCSVs) == 0 {
					t.Fatalf("process backend wrote %d CSVs, want %d", len(gotCSVs), len(baseCSVs))
				}
				for name, want := range baseCSVs {
					if gotCSVs[name] != want {
						t.Fatalf("process backend (shards=%d) changed %s", shards, name)
					}
				}
			}
		})
	}
}

// TestSocketBackendDoesNotChangeOutput extends the backend-conformance
// contract across the wire: the suite dispatched to socket workers over
// loopback — this test process serving its own registered experiment task —
// produces stdout and CSVs byte-identical to the in-process run.
func TestSocketBackendDoesNotChangeOutput(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); chanalloc.EngineServe(lis) }()
	defer func() { lis.Close(); <-done }()

	for _, exp := range []string{"theorem1", "distbatch"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			const seed = 7
			baseOut, baseCSVs := sweepRun(t, exp, seed, 2)
			// Two connections to the same loopback worker: peer scheduling
			// must not show in the output.
			gotOut, gotCSVs := sweepRun(t, exp, seed, 2,
				"-backend", "socket", "-addrs",
				lis.Addr().String()+","+lis.Addr().String())
			if gotOut != baseOut {
				t.Fatalf("socket backend changed stdout:\n--- inprocess\n%s\n--- socket\n%s",
					baseOut, gotOut)
			}
			if len(gotCSVs) != len(baseCSVs) || len(baseCSVs) == 0 {
				t.Fatalf("socket backend wrote %d CSVs, want %d", len(gotCSVs), len(baseCSVs))
			}
			for name, want := range baseCSVs {
				if gotCSVs[name] != want {
					t.Fatalf("socket backend changed %s", name)
				}
			}
		})
	}
}

// TestClusterBackendDoesNotChangeOutput extends the backend-conformance
// contract to the membership backend: the suite dispatched over a cluster
// coordinator — with this test process joined as a worker via the real
// register/heartbeat/pipelined path — produces stdout and CSVs
// byte-identical to the in-process run, at more than one window size.
func TestClusterBackendDoesNotChangeOutput(t *testing.T) {
	coord := "unix:" + t.TempDir() + "/coord.sock"
	// The worker's join loop retries until the coordinator (created inside
	// run() once the sweep starts) is listening, so starting it first is
	// safe — join order is free under the membership model.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := chanalloc.EngineJoinAndServe(coord, chanalloc.JoinStop(stop)); err != nil {
			t.Errorf("worker join: %v", err)
		}
	}()
	defer func() { close(stop); <-done }()

	for _, tc := range []struct {
		exp    string
		window string
	}{
		{"theorem1", "1"},
		{"distbatch", "8"},
	} {
		tc := tc
		t.Run(tc.exp+"/window="+tc.window, func(t *testing.T) {
			const seed = 7
			baseOut, baseCSVs := sweepRun(t, tc.exp, seed, 2)
			gotOut, gotCSVs := sweepRun(t, tc.exp, seed, 2,
				"-backend", "cluster", "-listen-workers", coord, "-window", tc.window)
			if gotOut != baseOut {
				t.Fatalf("cluster backend changed stdout:\n--- inprocess\n%s\n--- cluster\n%s",
					baseOut, gotOut)
			}
			if len(gotCSVs) != len(baseCSVs) || len(baseCSVs) == 0 {
				t.Fatalf("cluster backend wrote %d CSVs, want %d", len(gotCSVs), len(baseCSVs))
			}
			for name, want := range baseCSVs {
				if gotCSVs[name] != want {
					t.Fatalf("cluster backend changed %s", name)
				}
			}
		})
	}
}

// TestClusterBackendNeedsListenWorkers rejects -backend cluster without a
// worker-join address.
func TestClusterBackendNeedsListenWorkers(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "lemmas", "-backend", "cluster"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-listen-workers") {
		t.Fatalf("err = %v, want the missing -listen-workers error", err)
	}
}

// TestClusterBackendRejectsBadWindow: out-of-range -window / -join-wait
// values are loud configuration errors, not silently-applied defaults.
func TestClusterBackendRejectsBadWindow(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "lemmas", "-backend", "cluster",
		"-listen-workers", "127.0.0.1:0", "-window", "0"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-window") {
		t.Fatalf("err = %v, want the -window rejection", err)
	}
	err = run([]string{"-exp", "lemmas", "-backend", "cluster",
		"-listen-workers", "127.0.0.1:0", "-join-wait", "0s"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-join-wait") {
		t.Fatalf("err = %v, want the -join-wait rejection", err)
	}
}

// TestSplitAddrs pins the -addrs parsing contract: whitespace around
// entries is trimmed, and empty entries (stray commas) are loud errors
// instead of silently dropped or dialed-as-"" addresses.
func TestSplitAddrs(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string
		wantErr bool
	}{
		{"", nil, false},
		{"   ", nil, false},
		{"host:1", []string{"host:1"}, false},
		{" host:1 , host:2 ", []string{"host:1", "host:2"}, false},
		{"unix:/tmp/w.sock,host:2", []string{"unix:/tmp/w.sock", "host:2"}, false},
		{"host:1,,host:2", nil, true},
		{"host:1,", nil, true},
		{",host:1", nil, true},
		{" , ", nil, true},
	} {
		got, err := splitAddrs(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: want an empty-entry error, got %v", tc.in, got)
			} else if !strings.Contains(err.Error(), "empty") {
				t.Errorf("%q: error %v does not name the empty entry", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// TestSocketBackendRejectsStrayCommaAddrs is the CLI surface of the
// -addrs bugfix: a stray comma is a configuration error, not a silently
// shortened peer list.
func TestSocketBackendRejectsStrayCommaAddrs(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "lemmas", "-backend", "socket", "-addrs", "host:1,,host:2"}, &b)
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v, want the empty-entry rejection", err)
	}
}

// TestUnknownBackend rejects a bad -backend value before any work runs.
func TestUnknownBackend(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "lemmas", "-backend", "quantum"}, &b); err == nil {
		t.Fatal("unknown backend should error")
	}
}

// TestSocketBackendNeedsAddrs rejects -backend socket without -addrs.
func TestSocketBackendNeedsAddrs(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "lemmas", "-backend", "socket"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-addrs") {
		t.Fatalf("err = %v, want the missing -addrs error", err)
	}
}

// TestSeedChangesRandomisedOutput guards against the seed being ignored:
// different roots must shuffle the randomised experiments' streams.
func TestSeedChangesRandomisedOutput(t *testing.T) {
	for _, exp := range []string{"dynamics", "fig3-sim"} {
		a, _ := sweepRun(t, exp, 1, 1)
		b, _ := sweepRun(t, exp, 2, 1)
		if a == b {
			t.Errorf("%s output identical across different -seed values", exp)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "nope"}, &b); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if err := run([]string{"-badflag"}, &b); err == nil {
		t.Fatal("bad flag should error")
	}
}
