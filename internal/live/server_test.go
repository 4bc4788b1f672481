package live

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
	"github.com/multiradio/chanalloc/internal/workload"
)

func newTestServer(t *testing.T, workers int) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Channels: 4,
		Rate:     ratefn.NewTDMA(54),
		RateName: "tdma:54",
		Workers:  workers,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// traceBytes renders a request trace as NDJSON client input.
func traceBytes(t *testing.T, trace []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, req := range trace {
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestServeTraceDeterministicAcrossWorkers is the protocol-level
// determinism pin: the same seeded churn trace produces byte-identical
// server output at any worker count — parallel NE verification is an
// AND-reduce and never shows in the frames.
func TestServeTraceDeterministicAcrossWorkers(t *testing.T) {
	trace, err := GenerateTrace(DefaultChurnSpec(4, 5, 120, 7))
	if err != nil {
		t.Fatal(err)
	}
	in := traceBytes(t, append(trace, Request{Op: "stats"}, Request{Op: "bye"}))

	var outputs [][]byte
	for _, workers := range []int{1, 2, 8} {
		s := newTestServer(t, workers)
		var out bytes.Buffer
		if err := s.Serve(bytes.NewReader(in), &out); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs = append(outputs, out.Bytes())
	}
	for i := 1; i < len(outputs); i++ {
		if !bytes.Equal(outputs[0], outputs[i]) {
			t.Fatalf("server output differs between worker counts 1 and %d", []int{1, 2, 8}[i])
		}
	}

	// Every update frame in the transcript is settled and verified.
	lines := strings.Split(strings.TrimSpace(string(outputs[0])), "\n")
	var hello Hello
	if err := json.Unmarshal([]byte(lines[0]), &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Type != "hello" || hello.Version != ProtocolVersion || hello.Channels != 4 || hello.Rate != "tdma:54" {
		t.Fatalf("hello frame = %+v", hello)
	}
	updates, statsSeen, byeSeen := 0, false, false
	for _, line := range lines[1:] {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatal(err)
		}
		switch resp.Type {
		case "update":
			updates++
			u := resp.Update
			if u == nil || !u.Converged || !u.Verified {
				t.Fatalf("unsettled update frame: %s", line)
			}
			if u.Event != updates {
				t.Fatalf("event counter %d on update %d", u.Event, updates)
			}
		case "stats":
			statsSeen = true
			if resp.Stats.Events != updates {
				t.Fatalf("stats count %d events, transcript has %d updates", resp.Stats.Events, updates)
			}
			if resp.Stats.DPCalls < 1 || resp.Stats.WarmSkipped < 1 {
				t.Fatalf("stats missing convergence work: %+v", resp.Stats)
			}
		case "bye":
			byeSeen = true
		case "error":
			t.Fatalf("error frame on a valid trace: %s", line)
		default:
			t.Fatalf("unknown frame type %q", resp.Type)
		}
	}
	if updates != len(trace) || !statsSeen || !byeSeen {
		t.Fatalf("transcript had %d updates (want %d), stats=%v bye=%v",
			updates, len(trace), statsSeen, byeSeen)
	}
}

// TestServeErrorFrames pins the failure paths: bad JSON, unknown ops and
// invalid mutations produce error frames without ending the conversation
// or corrupting the game.
func TestServeErrorFrames(t *testing.T) {
	s := newTestServer(t, 1)
	in := strings.Join([]string{
		`{"op":"join","budget":2}`,
		`not json`,
		`{"op":"teleport"}`,
		`{"op":"leave","id":42}`,
		`{"op":"join","budget":0}`,
		`{"op":"budget","id":1,"k":0}`,
		`{"op":"join","budget":1}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := s.Serve(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	wantTypes := []string{"hello", "update", "error", "error", "error", "error", "error", "update"}
	if len(lines) != len(wantTypes) {
		t.Fatalf("got %d frames, want %d:\n%s", len(lines), len(wantTypes), out.String())
	}
	for i, line := range lines {
		var frame struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &frame); err != nil {
			t.Fatal(err)
		}
		if frame.Type != wantTypes[i] {
			t.Fatalf("frame %d is %q, want %q: %s", i, frame.Type, wantTypes[i], line)
		}
	}
	if s.Game().Users() != 2 {
		t.Fatalf("game has %d users after 2 good joins, want 2", s.Game().Users())
	}
}

// TestApplyJoinRespectsCellBound: a join that would take users·channels
// past workload.MaxCells gets an error frame naming the bound, and the
// game, its invariants and the server's stats stay as they were.
func TestApplyJoinRespectsCellBound(t *testing.T) {
	s, err := NewServer(Config{
		Channels: workload.MaxCells / 2,
		Rate:     ratefn.NewTDMA(54),
		RateName: "tdma:54",
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if resp := s.Apply(Request{Op: "join", Budget: 1}); resp.Type != "update" {
			t.Fatalf("join %d within the bound -> %+v", i+1, resp)
		}
	}
	before := s.Stats()
	resp := s.Apply(Request{Op: "join", Budget: 1})
	if resp.Type != "error" || !strings.Contains(resp.Error, workload.ErrTooLarge.Error()) {
		t.Fatalf("join past the cell bound -> %+v, want an error naming %q", resp, workload.ErrTooLarge)
	}
	if got := s.Game().Users(); got != 2 {
		t.Fatalf("game has %d users after a refused join, want 2", got)
	}
	if err := s.Game().Check(); err != nil {
		t.Fatalf("invariants after a refused join: %v", err)
	}
	if after := s.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("stats moved on a refused join: %+v -> %+v", before, after)
	}
}

// TestApplyJoinAssignsSequentialIDs pins the id contract the churn
// generator mirrors: sequential from 1, never reused.
func TestApplyJoinAssignsSequentialIDs(t *testing.T) {
	s := newTestServer(t, 1)
	for want := int64(1); want <= 3; want++ {
		resp := s.Apply(Request{Op: "join", Budget: 1})
		if resp.Type != "update" || resp.Update.ID != want {
			t.Fatalf("join %d -> %+v", want, resp)
		}
	}
	if resp := s.Apply(Request{Op: "leave", ID: 2}); resp.Type != "update" {
		t.Fatalf("leave -> %+v", resp)
	}
	// The freed id is not recycled.
	if resp := s.Apply(Request{Op: "join", Budget: 1}); resp.Update.ID != 4 {
		t.Fatalf("join after leave assigned id %d, want 4", resp.Update.ID)
	}
}

// TestBudgetEventAllocationPerUser bounds the heap one event allocates on
// a large warm game: at N = 4096 users on 16 channels, budget events
// (mutate, re-equilibrate, welfare, verify) allocate under 4 bytes per
// user each, measured by runtime.MemStats.TotalAlloc over 300 events. A
// per-event copy of any per-user vector (8 bytes a user for the budgets)
// breaks the bound.
func TestBudgetEventAllocationPerUser(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool and adds allocations")
	}
	const users, events = 4096, 300
	s, err := NewServer(Config{
		Channels: 16, Rate: ratefn.NewTDMA(54), RateName: "tdma:54",
		Workers: 1, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lg := s.Game()
	for i := 0; i < users; i++ {
		if _, err := lg.Join(1 + i%4); err != nil {
			t.Fatal(err)
		}
	}
	apply := func(budget int) {
		t.Helper()
		if u := s.Apply(Request{Op: "budget", ID: 1, Budget: budget}).Update; u == nil || !u.Converged || !u.Verified {
			t.Fatalf("budget %d: update %+v", budget, u)
		}
	}
	apply(2) // re-equilibrates the joins and warms the pooled workspaces
	apply(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < events; i++ {
		apply(2 - i%2)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / events
	if perEvent >= 4*users {
		t.Fatalf("%.0f bytes allocated per event at N=%d, want under %d (4 per user)", perEvent, users, 4*users)
	}
	t.Logf("%.0f bytes allocated per event at N=%d (%.2f per user)", perEvent, users, perEvent/users)
}

// TestApplyRefusesCorruptRow: a row pushed over its budget through the
// live allocation, which LiveGame.Alloc documents as read-only, makes the
// next event of any kind answer with an error frame naming the invalid
// allocation, although the row is no churn suspect of that event.
func TestApplyRefusesCorruptRow(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(a *core.Alloc) error
	}{
		// Row 0 belongs to user 1, budget 1, one radio deployed.
		{"SetRow", func(a *core.Alloc) error { return a.SetRow(0, []int{1, 1, 0, 0}) }},
		{"Add", func(a *core.Alloc) error {
			c := 0
			for a.Radios(0, c) > 0 {
				c++
			}
			return a.Add(0, c, 1)
		}},
	}
	for _, cr := range corruptions {
		for _, req := range []Request{
			{Op: "join", Budget: 2},
			{Op: "budget", ID: 2, Budget: 3},
			{Op: "leave", ID: 3},
		} {
			t.Run(cr.name+"/"+req.Op, func(t *testing.T) {
				s := newTestServer(t, 1)
				for _, k := range []int{1, 2, 1, 3} {
					if resp := s.Apply(Request{Op: "join", Budget: k}); resp.Type != "update" || !resp.Update.Verified {
						t.Fatalf("join(%d) -> %+v", k, resp)
					}
				}
				if err := cr.corrupt(s.Game().Alloc()); err != nil {
					t.Fatal(err)
				}
				resp := s.Apply(req)
				if resp.Type != "error" || !strings.Contains(resp.Error, "dynamics: live allocation invalid") {
					t.Fatalf("%+v after a corrupt row -> %+v, want an error frame naming the invalid allocation", req, resp)
				}
			})
		}
	}
}
