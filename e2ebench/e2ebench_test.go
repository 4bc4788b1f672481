package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	ca "github.com/multiradio/chanalloc"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // rank 990: 10 beyond
		{999, 99, false}, // rank 990: 9 beyond
		{200, 95, true},  // rank 190: 10 beyond
		{199, 95, false}, // rank 190: 9 beyond
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%g) = %v (%d beyond), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
	// Every workload's tail holds minTail samples at the smallest sample
	// count its timed phase guarantees or, for churn, at a tenth of its
	// trace capacity.
	for _, w := range workloads {
		n := w.minBatches
		switch {
		case w.kind == "churn":
			n = w.maxEventRate
		case w.latencyUnit == "job":
			n = w.minBatches * w.batchJobs
		}
		for _, p := range []float64{steadyTailPct, w.tailPct} {
			if !tailSupported(n, p) {
				t.Errorf("%s: p%g over %d samples has only %d beyond it", w.name, p, n, beyond(n, p))
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestStageSumCheck(t *testing.T) {
	cases := []struct {
		apply, stages float64
		want          bool
	}{
		{100, 86, true},  // gap 14 within 15%
		{100, 115, true}, // stages may exceed apply by as much
		{100, 84, false}, // gap 16 outside 15%
		{10, 7.5, true},  // small events: the 3 µs floor applies
		{10, 6, false},
	}
	for _, c := range cases {
		if got := stagesAccountFor(c.apply, c.stages); got != c.want {
			t.Errorf("stagesAccountFor(%v, %v) = %v, want %v", c.apply, c.stages, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(4)
	tr.spans = append(tr.spans,
		span{Name: spanEvent, Parent: -1, Start: 0, End: 100},
		span{Name: spanMutate, Parent: 0, Start: 10, End: 30},
		span{Name: spanVerify, Parent: 0, Start: 40, End: 90},
		span{Name: spanApply, Parent: -1, Start: 100, End: 170},
	)
	total, self, count := tr.selfTimes()
	want := map[string][2]time.Duration{
		"event":         {100, 30},
		"hetero.mutate": {20, 20},
		"live.verify":   {50, 50},
		"live.apply":    {70, 70},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] || count[name] != 1 {
			t.Errorf("%s: total %v self %v count %d, want %v %v 1", name, total[name], self[name], count[name], w[0], w[1])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spanEvent, -1, 0)) // records nothing, must not panic
}

func TestTranscriptCheckRejectsBadTranscripts(t *testing.T) {
	hello := fmt.Sprintf(`{"type":"hello","version":%d,"channels":4,"rate":"tdma:54"}`, ca.LiveProtocolVersion)
	upd := func(event int, verified bool) string {
		return fmt.Sprintf(`{"type":"update","update":{"event":%d,"op":"join","id":%d,"users":1,"radios":1,"loads":[1,0,0,0],"welfare":54,"rounds":1,"moves":0,"dp_calls":1,"warm_skipped":0,"converged":true,"verified":%v}}`, event, event, verified)
	}
	check := func(frames ...string) (*transcriptCheck, []byte) {
		c := newTranscriptCheck(1)
		body := strings.Join(frames, "\n") + "\n"
		c.Write([]byte(body))
		sum := sha256.Sum256([]byte(body))
		return c, sum[:]
	}
	c, sum := check(hello, upd(1, true), upd(2, true))
	rep := &report{}
	c.verdict(rep, sum, 2)
	if !rep.correct() {
		t.Fatalf("clean transcript rejected: %v", rep.problems)
	}
	for name, frames := range map[string][]string{
		"gap in events": {hello, upd(1, true), upd(3, true)},
		"unverified":    {hello, upd(1, true), upd(2, false)},
		"error frame":   {hello, upd(1, true), `{"type":"error","error":"boom"}`},
		"no hello":      {upd(1, true), upd(2, true), upd(3, true)},
	} {
		c, sum := check(frames...)
		rep := &report{}
		c.verdict(rep, sum, len(frames)-1)
		if rep.correct() {
			t.Errorf("%s: transcript accepted", name)
		}
	}
	// A transcript that differs from the one read over TCP fails even when
	// every frame is clean.
	c, _ = check(hello, upd(1, true), upd(2, true))
	rep = &report{}
	c.verdict(rep, make([]byte, 32), 2)
	if rep.correct() {
		t.Error("transcript hash mismatch accepted")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	if want := []string{"--seed", fmt.Sprint(defaultSeed)}; !slices.Equal(b.Command[len(b.Command)-2:], want) {
		t.Errorf("BENCHMARK.json command %q does not end with %q", b.Command, want)
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

// runOnce runs the benchmark's command-line entry and returns its result.
func runOnce(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\nstderr: %s\nstdout: %s", args, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, stdout.String()
}

// TestSmoke runs every workload for one second, untraced on a second seed
// (7, so the correctness gate is shown to hold off the default seed) and
// traced on the default seed, and checks each reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, mode := range []struct {
				trace, seed string
				want        []metricDef
			}{
				{"0", "7", e2eMetrics},
				{"1", fmt.Sprint(defaultSeed), layerMetrics},
			} {
				res, out := runOnce(t, "--workload", w.name, "--seed", mode.seed, "--seconds", "1", "--trace", mode.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %s: correct=%v failed=%d attempted=%d\n%s", mode.trace, res.Correct, res.Failed, res.Attempted, out)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
						t.Errorf("trace %s: metric %s missing or not in %s", mode.trace, m.name, m.unit)
					}
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs the traced phase twice per kind of workload:
// the counts it reports must repeat exactly, because the traced phase does
// a fixed amount of work.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads twice")
	}
	counts := map[string][]string{
		"churn-c4-n8":    {"dynamics.dp_calls_per_event", "dynamics.warm_skipped_per_event", "dynamics.rounds_per_event", "live.verify_dps_per_event", "live.frame_bytes_out"},
		"sweep-ring-b16": {"dist.messages_per_job", "dist.rounds_per_job", "journal.writes", "engine.params_bytes_per_job", "engine.requeues"},
	}
	for name, keys := range counts {
		first, _ := runOnce(t, "--workload", name, "--seconds", "1", "--trace", "1")
		second, _ := runOnce(t, "--workload", name, "--seconds", "1", "--trace", "1")
		for _, k := range keys {
			a, b := first.Metrics[k].Value, second.Metrics[k].Value
			if a != b || a == 0 && k != "engine.requeues" {
				t.Errorf("%s: %s read %v then %v", name, k, a, b)
			}
		}
	}
}
