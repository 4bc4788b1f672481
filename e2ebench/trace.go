package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per layer call the benchmark times.
const (
	spanEvent int32 = iota // root of one staged churn request
	spanMutate
	spanRequilibrate
	spanWelfare
	spanVerify
	spanDecode
	spanApply
	spanEncode
	spanParamsDecode
	spanRingExec
	spanJournalAppend
)

var spanNames = [...]string{
	spanEvent:         "event",
	spanMutate:        "hetero.mutate",
	spanRequilibrate:  "dynamics.requilibrate",
	spanWelfare:       "hetero.welfare",
	spanVerify:        "live.verify",
	spanDecode:        "live.decode",
	spanApply:         "live.apply",
	spanEncode:        "live.encode",
	spanParamsDecode:  "engine.params_decode",
	spanRingExec:      "dist.ring_exec",
	spanJournalAppend: "journal.append",
}

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share its index in Req.
type span struct {
	Name       int32 // index into spanNames
	Parent     int32 // index of the enclosing span, -1 at the root
	Req        int32
	Start, End int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, parent int32, req int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: int32(req), Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes a span. begin and end on a nil tracer record nothing.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes returns each span name's total duration and total self time:
// its duration minus the part of that interval its child spans cover.
func (t *tracer) selfTimes() (total, self map[string]time.Duration, count map[string]int) {
	childCover := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for i, s := range t.spans {
		name := spanNames[s.Name]
		d := s.End - s.Start
		total[name] += time.Duration(d)
		self[name] += time.Duration(d - childCover[i])
		count[name]++
	}
	return total, self, count
}

// durations lists the durations of every span with the given name, in the
// order they were opened.
func (t *tracer) durations(name int32) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// pairedOverhead is the median of the per-request differences between a
// traced run of some work and an untraced run of the same work, in µs.
func pairedOverhead(traced, untraced []time.Duration) float64 {
	n := min(len(traced), len(untraced))
	diff := make([]float64, n)
	for i := range diff {
		diff[i] = float64(traced[i]-untraced[i]) / float64(time.Microsecond)
	}
	return median(diff)
}

// write dumps every span as CSV: index, parent, name, request, start and
// end in ns since the first span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,parent,name,req,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.Parent, spanNames[s.Name], s.Req, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
