package dist

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/faultinject"
	"github.com/multiradio/chanalloc/internal/ndjson"
	"github.com/multiradio/chanalloc/internal/workload"
)

// The frame-bound tests feed each end of the protocol a frame that never
// ends (faultinject.Flood) and check that the read fails with
// ndjson.ErrTooLong after the heap grew by at most the bound plus
// floodSlack. The flood runs to twice the bound and more, so a reader
// without a bound (json.Decoder buffered the whole value) fails the
// check.
const (
	floodLimit = 2*maxFrameBytes + 8<<20
	floodSlack = 4 << 20
)

// checkFlood fails the test unless err ends a read at the bound and the
// heap grew by at most the bound plus floodSlack while it ran.
func checkFlood(t *testing.T, err error, grew uint64) {
	t.Helper()
	if !errors.Is(err, ndjson.ErrTooLong) {
		t.Fatalf("reading an endless frame ended with %v, want ndjson.ErrTooLong", err)
	}
	if grew > maxFrameBytes+floodSlack {
		t.Fatalf("reading an endless frame allocated %d bytes, bound %d", grew, maxFrameBytes)
	}
}

// TestRunAgentFrameBound: an agent refuses a frame past the bound from its
// coordinator.
func TestRunAgentFrameBound(t *testing.T) {
	coord, end := net.Pipe()
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer coord.Close()
		io.Copy(coord, faultinject.NewFlood(`{"type":"hello","user":"`, floodLimit))
	}()
	var err error
	grew := faultinject.Allocated(func() { _, err = RunAgent(end, &GreedyPolicy{}, 0) })
	end.Close()
	<-copied
	checkFlood(t, err, grew)
}

// TestCoordinatorFrameBound: a coordinator refuses a reply past the bound
// from an agent, and a game whose frames could pass it.
func TestCoordinatorFrameBound(t *testing.T) {
	co, err := NewCoordinator(testGame(t, 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	conn, agentEnd := net.Pipe()
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer agentEnd.Close()
		// Take the hello and the token, then answer with an endless row.
		rd := ndjson.NewReader(agentEnd, maxFrameBytes)
		for range 2 {
			if _, err := rd.Next(); err != nil {
				t.Error(err)
				return
			}
		}
		io.Copy(agentEnd, faultinject.NewFlood(`{"type":"row","user":"`, floodLimit))
	}()
	grew := faultinject.Allocated(func() { _, _, err = co.Run([]net.Conn{conn}) })
	conn.Close()
	<-copied
	checkFlood(t, err, grew)

	// One cell past MaxCells: refused before any connection is read.
	co, err = NewCoordinator(testGame(t, workload.MaxCells/2048+1, 2048, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Run(make([]net.Conn, workload.MaxCells/2048+1)); !errors.Is(err, workload.ErrTooLarge) {
		t.Fatalf("a game past MaxCells: %v, want workload.ErrTooLarge", err)
	}
}

// TestRunAgentFraming pins the framing rule at an agent: blank lines are
// skipped, and a frame split across lines or two frames on one line end
// the run.
func TestRunAgentFraming(t *testing.T) {
	const (
		hello = `{"type":"hello","user":0,"channels":2,"radios":1}`
		token = `{"type":"token","user":0,"loads":[1,0],"row":[0,0]}`
		done  = `{"type":"done","user":0,"matrix":[[0,1],[1,0]],"ne":true,"converged":true,"rounds":2}`
	)
	run := func(in string) (AgentResult, error) {
		coord, end := net.Pipe()
		defer coord.Close()
		defer end.Close()
		go coord.Write([]byte(in))
		go io.Copy(io.Discard, coord)
		return RunAgent(end, &GreedyPolicy{}, 0)
	}
	res, err := run("\n" + hello + "\n\n \r\n" + token + "\n\t\n" + done + "\n")
	if err != nil || !res.IsNE || len(res.Matrix) != 2 {
		t.Fatalf("blank lines: %+v, %v", res, err)
	}
	for _, in := range []string{
		strings.Replace(hello, `"radios":`, "\n"+`"radios":`, 1) + "\n",
		hello + token + "\n",
	} {
		if _, err := run(in); err == nil || !strings.HasPrefix(err.Error(), "dist: awaiting hello: ") {
			t.Fatalf("RunAgent(%q) = %v, want a decode error awaiting the hello", in, err)
		}
	}
}
