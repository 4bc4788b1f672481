package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/live"
	"github.com/multiradio/chanalloc/internal/ndjson"
)

const goldenSpec = "4,6,200,7"

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "churn_4c_200ev_seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChurnModeMatchesGolden replays the committed 200-event seeded trace
// in-process and pins the full transcript byte-for-byte, at several worker
// counts. A diff here is a protocol or determinism regression.
func TestChurnModeMatchesGolden(t *testing.T) {
	want := goldenBytes(t)
	for _, workers := range []int{1, 4} {
		var out bytes.Buffer
		err := run([]string{
			"-mode", "churn", "-churn", goldenSpec, "-rate", "tdma:54",
			"-workers", map[int]string{1: "1", 4: "4"}[workers],
		}, &out, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("workers=%d: transcript diverged from golden (%d vs %d bytes)",
				workers, out.Len(), len(want))
		}
	}
}

// TestLoopbackServe is the end-to-end smoke test: a real TCP loopback
// conversation streaming the seeded trace must produce the same bytes as
// the in-process churn mode — the transport is invisible.
func TestLoopbackServe(t *testing.T) {
	spec, err := live.ParseChurnSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := live.GenerateTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := encodeTrace(append(trace, live.Request{Op: "stats"}, live.Request{Op: "bye"}))
	if err != nil {
		t.Fatal(err)
	}

	rate, err := chanalloc.ParseRate("tdma:54")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serveListener(ln, live.Config{
			Channels: spec.Channels,
			Rate:     rate,
			RateName: "tdma:54",
			Workers:  2,
			Verify:   true,
		}, nil, 0)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeErr := make(chan error, 1)
	go func() {
		_, err := conn.Write(in)
		writeErr <- err
	}()

	// Read as the server reads: the shared frame reader at live's bound.
	var transcript bytes.Buffer
	rd := ndjson.NewReader(conn, live.MaxFrameBytes)
	for {
		line, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		transcript.Write(line)
		transcript.WriteByte('\n')
		if bytes.Equal(line, []byte(`{"type":"bye"}`)) {
			break
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(transcript.Bytes(), goldenBytes(t)) {
		t.Fatalf("loopback transcript diverged from golden (%d vs %d bytes)",
			transcript.Len(), len(goldenBytes(t)))
	}
	// The accept loop only returns on listener close.
	ln.Close()
	<-serveErr
}

// TestMetricsScrapeDuringGoldenReplay is the determinism acceptance test
// for the observability layer: with the metrics endpoint up and a client
// hammering /metrics, /metrics.json and /trace THROUGHOUT the golden churn
// replay, the transcript must still match the pinned bytes — metrics are a
// side channel, never an input.
func TestMetricsScrapeDuringGoldenReplay(t *testing.T) {
	srv, err := chanalloc.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr.String()

	scrape := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return body
	}

	done := make(chan struct{})
	scraping := make(chan struct{})
	go func() {
		defer close(scraping)
		for {
			select {
			case <-done:
				return
			default:
				scrape("/metrics")
				scrape("/metrics.json")
				scrape("/trace")
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var out bytes.Buffer
	err = run([]string{"-mode", "churn", "-churn", goldenSpec, "-rate", "tdma:54"}, &out, nil)
	close(done)
	<-scraping
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), goldenBytes(t)) {
		t.Fatalf("transcript diverged from golden under metrics scraping (%d vs %d bytes)",
			out.Len(), len(goldenBytes(t)))
	}

	// After the replay the exposition must show the churn it observed.
	body := scrape("/metrics")
	for _, want := range []string{"live_events_total", "dynamics_requilibrates_total", "kernel_dp_calls_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %s after churn replay", want)
		}
	}
	if trace := scrape("/trace"); !bytes.Contains(trace, []byte(`"kind":"churn"`)) {
		t.Errorf("/trace has no churn events after replay: %q", trace[:min(len(trace), 200)])
	}
}

// TestTraceMode pins that trace mode emits the replay input churn mode
// consumes: exactly the spec's events, deterministically.
func TestTraceMode(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-mode", "trace", "-churn", goldenSpec}, &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mode", "trace", "-churn", goldenSpec}, &b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace mode is not deterministic")
	}
	if lines := bytes.Count(a.Bytes(), []byte("\n")); lines != 200 {
		t.Fatalf("trace has %d lines, want 200", lines)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "warp"}, &out, nil); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run([]string{"-rate", "quantum:1"}, &out, nil); err == nil {
		t.Fatal("unknown rate accepted")
	}
	if err := run([]string{"-mode", "churn", "-churn", "bogus"}, &out, nil); err == nil {
		t.Fatal("bad churn spec accepted")
	}
}
