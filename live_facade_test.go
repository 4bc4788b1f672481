package chanalloc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/workload"
)

// TestLiveFacade drives the live-game surface end to end through the
// facade: mutate, warm-start requilibrate with a borrowed workspace, and
// cross-check the result against the cold-start best-response runner.
func TestLiveFacade(t *testing.T) {
	lg, err := chanalloc.NewLiveGame(4, chanalloc.TDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	var ids []chanalloc.UserID
	for _, k := range []int{2, 1, 3, 1} {
		id, err := lg.Join(k)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ws := chanalloc.BorrowWorkspace()
	defer chanalloc.ReturnWorkspace(ws)
	res, err := chanalloc.Requilibrate(lg, chanalloc.WithDynamicsWorkspace(ws))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := lg.Leave(ids[1]); err != nil {
		t.Fatal(err)
	}

	// Cold-start runner from the same post-churn state must agree.
	g := lg.Frozen()
	start := lg.Alloc().Clone()
	warm, err := chanalloc.Requilibrate(lg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := chanalloc.RunBestResponse(g, start)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Moves != cold.Moves || !cold.Final.Equal(lg.Alloc()) {
		t.Fatalf("warm (%d moves) and cold (%d moves) disagree", warm.Moves, cold.Moves)
	}
	ne, err := g.IsNashEquilibrium(lg.Alloc())
	if err != nil || !ne {
		t.Fatalf("terminal allocation not NE: %v %v", ne, err)
	}
}

// TestGenerateChurnTraceRefusesOversizedSpec: a spec built directly, not
// parsed from the churn grammar, meets the same (initial+events)·channels
// cell bound, so the generator refuses it with an error before sizing its
// queue or trace. The bound is inclusive.
func TestGenerateChurnTraceRefusesOversizedSpec(t *testing.T) {
	for _, spec := range []chanalloc.ChurnSpec{
		chanalloc.DefaultChurnSpec(4, 6, 9000000000000000000, 1),
		chanalloc.DefaultChurnSpec(4, 9000000000000000000, 6, 1),
		chanalloc.DefaultChurnSpec(2, 2097152, 1, 1),
	} {
		trace, err := chanalloc.GenerateChurnTrace(spec)
		if !errors.Is(err, workload.ErrTooLarge) || trace != nil {
			t.Errorf("spec %d initial + %d events x %d channels: %d requests, error %v, want one wrapping workload.ErrTooLarge",
				spec.Initial, spec.Events, spec.Channels, len(trace), err)
		}
	}
	if err := chanalloc.DefaultChurnSpec(2, 2097151, 1, 1).Validate(); err != nil {
		t.Errorf("spec at the cell bound refused: %v", err)
	}
}

// TestLiveFacadeServer runs a tiny churn trace through the facade's
// server exports.
func TestLiveFacadeServer(t *testing.T) {
	trace, err := chanalloc.GenerateChurnTrace(chanalloc.DefaultChurnSpec(3, 2, 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 20 {
		t.Fatalf("trace has %d events, want 20", len(trace))
	}
	srv, err := chanalloc.NewLiveServer(chanalloc.LiveConfig{
		Channels: 3, Rate: chanalloc.TDMA(54), RateName: "tdma:54", Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, req := range trace {
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := chanalloc.ServeLive(srv, &in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "\n")
	if lines != len(trace)+1 { // hello + one update per event
		t.Fatalf("transcript has %d frames, want %d", lines, len(trace)+1)
	}
	if strings.Contains(out.String(), `"type":"error"`) {
		t.Fatalf("error frame in transcript:\n%s", out.String())
	}

	// The protocol version is part of the public surface.
	if chanalloc.LiveProtocolVersion != 1 {
		t.Fatalf("protocol version %d, want 1", chanalloc.LiveProtocolVersion)
	}
	if _, err := chanalloc.ParseRate("tdma:54"); err != nil {
		t.Fatal(err)
	}
}
