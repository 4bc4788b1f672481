package engine

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/faultinject"
	"github.com/multiradio/chanalloc/internal/ndjson"
)

// The frame-bound tests feed each reader of the worker protocol a frame
// that never ends (faultinject.Flood) and check that the read fails with
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

// TestServeWorkerFrameBound: the worker's serving loop refuses a job frame
// past the bound, and reads one frame per line: blank lines are skipped,
// and a frame split across lines or two frames on one line end the
// session.
func TestServeWorkerFrameBound(t *testing.T) {
	var err error
	flood := faultinject.NewFlood(`{"type":"job","job":0,"task":"`, floodLimit)
	grew := faultinject.Allocated(func() { _, err = serveInput(flood) })
	checkFlood(t, err, grew)

	job := `{"type":"job","job":0,"task":"conformance/draw","params":{"mul":3},"seed":1}`
	out, err := serveInput(strings.NewReader("\n" + job + "\n \r\n\n" + job + "\n\n"))
	if err != nil {
		t.Fatalf("blank lines: %v", err)
	}
	if n := strings.Count(string(out), "\n"); n != 2 {
		t.Fatalf("blank lines: %d results for 2 job frames", n)
	}
	for _, in := range []string{
		strings.Replace(job, `"seed":`, "\n"+`"seed":`, 1) + "\n",
		job + job + "\n",
	} {
		out, err := serveInput(strings.NewReader(in))
		if err == nil || !strings.HasPrefix(err.Error(), "decoding job frame: ") || len(out) != 0 {
			t.Fatalf("serving %q ended with %v after %q; want a decode error and no result", in, err, out)
		}
	}
}

// TestJoinedWorkerFrameBound: a joined worker refuses a job frame past the
// bound from the coordinator it registered with.
func TestJoinedWorkerFrameBound(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	coord := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			coord <- err
			return
		}
		defer conn.Close()
		if _, err := acceptRegistration(json.NewEncoder(conn), ndjson.NewReader(conn, maxFrameBytes), "", time.Second); err != nil {
			coord <- err
			return
		}
		// The worker hangs up once the frame passes its bound.
		_, err = io.Copy(conn, faultinject.NewFlood(`{"type":"job","job":0,"task":"`, floodLimit))
		coord <- err
	}()
	var cfg joinConfig
	grew := faultinject.Allocated(func() { err = joinOnce("tcp", lis.Addr().String(), &cfg) })
	checkFlood(t, err, grew)
	if err := <-coord; err == nil {
		t.Fatal("the coordinator sent the whole flood; the worker kept reading")
	}
}

// TestClusterFrameBound: a coordinator refuses a register frame past the
// much smaller bound of a connection it has not admitted, before any auth
// check, and drops a member whose result frame passes the frame bound.
func TestClusterFrameBound(t *testing.T) {
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// flood streams an endless frame after the first frames and returns
	// the peer's read error once the coordinator has hung up (or, had it
	// read the whole flood, once it saw the stream end).
	flood := func(prefix string, first func(enc *json.Encoder, rd *ndjson.Reader)) error {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rd := ndjson.NewReader(conn, maxFrameBytes)
		first(json.NewEncoder(conn), rd)
		io.Copy(conn, faultinject.NewFlood(prefix, floodLimit))
		conn.(*net.TCPConn).CloseWrite()
		var m wireMsg
		return rd.Decode(&m)
	}
	t.Run("register", func(t *testing.T) {
		var err error
		grew := faultinject.Allocated(func() {
			err = flood(`{"type":"register","version":2,"token":"`, func(*json.Encoder, *ndjson.Reader) {})
		})
		if err == nil || grew > registerBound+floodSlack {
			t.Fatalf("coordinator answered %v after allocating %d bytes (bound %d)", err, grew, registerBound)
		}
		if n := c.reg.Len(); n != 0 {
			t.Fatalf("%d members after an endless register frame", n)
		}
	})
	t.Run("result", func(t *testing.T) {
		var err error
		grew := faultinject.Allocated(func() {
			err = flood(`{"type":"result","job":0,"value":"`, func(enc *json.Encoder, rd *ndjson.Reader) {
				if _, err := registerHandshake(enc, rd, ""); err != nil {
					t.Error(err)
				}
			})
		})
		if err == nil || grew > maxFrameBytes+floodSlack {
			t.Fatalf("coordinator answered %v after allocating %d bytes (bound %d)", err, grew, maxFrameBytes)
		}
		if trouble := c.trouble.latest(); !errors.Is(trouble, ndjson.ErrTooLong) {
			t.Fatalf("the coordinator noted %v, want the member's frame past the bound", trouble)
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.reg.Len() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := c.reg.Len(); n != 0 {
			t.Fatalf("%d members after an endless result frame", n)
		}
	})
}
