package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. For a per-layer
// metric, moves names the end-to-end metrics and workloads a change in it
// should move.
type metricDef struct{ name, unit, moves string }

// e2eMetrics are the end-to-end metrics every untraced run reports in its
// result, in BENCHMARK.json order. They are the ones that hold steady on a
// shared host: process CPU time per operation and memory exclude the time
// the hypervisor steals, which on a 2-vCPU guest swings between 0% and 35%
// within minutes and moves wall-clock throughput and latency by up to 2x.
// Throughput, latency percentiles and the error rate are measured and
// printed on every run as well, but not gated.
var e2eMetrics = []metricDef{
	{name: "cpu_us_per_op", unit: "us"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order, each with the end-to-end metrics it should move. A
// workload that never enters a layer reports 0 for it and says so in its
// report line.
var layerMetrics = []metricDef{
	{"live.apply_us", "us", "churn-c16-n1024 throughput and p50; churn-c4-n8 p50"},
	{"live.decode_us", "us", "churn-c4-n8 throughput and p50"},
	{"live.encode_us", "us", "churn-c4-n8 throughput and p50"},
	{"live.frame_bytes_out", "bytes", "churn-c4-n8 throughput and p50"},
	{"live.verify_us", "us", "churn-c16-n1024 throughput, p50 and p90"},
	{"live.verify_dps_per_event", "count", "churn-c16-n1024 throughput and cpu_us_per_op"},
	{"live.other_us", "us", "churn-c4-n8 p50"},
	{"transport.rtt_us", "us", "churn-c4-n8 p50"},
	{"hetero.mutate_us", "us", "churn-c16-n1024 p50"},
	{"hetero.welfare_us", "us", "churn-c16-n1024 p50"},
	{"dynamics.requilibrate_us", "us", "churn-c16-n1024 p50, p90 and setup_s"},
	{"dynamics.dp_calls_per_event", "count", "churn-c16-n1024 p50, p90 and setup_s"},
	{"dynamics.warm_skipped_per_event", "count", "churn-c16-n1024 p50 and setup_s"},
	{"dynamics.rounds_per_event", "count", "churn-c16-n1024 p90"},
	{"core.dp_us", "us", "both churn workloads, through verification"},
	{"engine.job_rtt_p50_us", "us", "sweep-ring-b1024 p50 (per job); sweep-ring-b16 p50"},
	{"engine.job_rtt_p99_us", "us", "sweep-ring-b1024 p90 (per job)"},
	{"engine.params_bytes_per_job", "bytes", "sweep-ring-b1024 throughput only"},
	{"engine.params_decode_us", "us", "sweep-ring-b1024 throughput only"},
	{"engine.overhead_us_per_job", "us", "sweep-ring-b16 p50"},
	{"engine.requeues", "count", "nothing while the worker is healthy (0)"},
	{"dist.ring_exec_us", "us", "sweep-ring-b16 throughput"},
	{"dist.messages_per_job", "count", "sweep-ring-b16 throughput"},
	{"dist.rounds_per_job", "count", "sweep-ring-b16 throughput"},
	{"journal.append_us", "us", "sweep-ring-b16 p50 (a small share)"},
	{"journal.writes", "count", "sweep-ring-b16 p50 (a small share)"},
	{"gc.alloc_bytes_per_op", "bytes", "churn p90 and cpu_us_per_op; sweep-ring-b1024 peak_rss_mb"},
	{"gc.allocs_per_op", "count", "churn p90 and cpu_us_per_op; sweep-ring-b1024 peak_rss_mb"},
	{"gc.cycles_per_1k_ops", "count", "churn p90; sweep-ring-b1024 peak_rss_mb"},
	{"trace.overhead_us", "us", "nothing: it is the cost of the traced run itself"},
}

type kv struct{ k, v string }

// metric is one reported number with the sample count behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// report collects one run's environment, metrics and correctness verdict.
type report struct {
	env       []kv
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *report) add(name string, value float64, unit string, samples int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples, note})
}

// notExercised reports every listed metric as 0 for a layer the workload
// never enters.
func (r *report) notExercised(prefixes ...string) {
	for _, m := range layerMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				r.add(m.name, 0, m.unit, 0, "layer not exercised by this workload")
			}
		}
	}
}

// fail records a correctness violation; any one makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == keep {
		r.problems = append(r.problems, "(further problems suppressed)")
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// result is the last line of the run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the environment record, one line per metric (name, value,
// unit, sample count, procs), any correctness problems, and last the JSON
// result holding exactly the wanted metrics.
func (r *report) write(w io.Writer, traced bool) error {
	want := e2eMetrics
	if traced {
		want = layerMetrics
	}
	var env strings.Builder
	for _, e := range r.env {
		v := e.v
		if strings.ContainsAny(v, " \t\"") {
			v = strconv.Quote(v)
		}
		fmt.Fprintf(&env, " %s=%s", e.k, v)
	}
	fmt.Fprintf(w, "env%s\n", env.String())
	procs := runtime.GOMAXPROCS(0)
	moves := map[string]string{}
	for _, m := range layerMetrics {
		moves[m.name] = m.moves
	}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
		fmt.Fprintf(w, "metric %-32s %14.4f %-5s n=%d procs=%d", m.name, m.value, m.unit, m.samples, procs)
		if m.note != "" {
			fmt.Fprintf(w, "  # %s", m.note)
		}
		if mv := moves[m.name]; mv != "" && m.samples > 0 {
			fmt.Fprintf(w, " -> should move %s", mv)
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range want {
		got, ok := byName[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if got.unit != m.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.name, got.unit, m.unit)
		}
		if math.IsNaN(got.value) || math.IsInf(got.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, got.value)
		}
		res.Metrics[m.name] = resultValue{got.value, got.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
