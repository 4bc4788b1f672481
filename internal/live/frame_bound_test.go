package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/faultinject"
	"github.com/multiradio/chanalloc/internal/ndjson"
)

// TestServeFrameBound: the server ends a conversation whose request line
// never ends with ndjson.ErrTooLong, after the heap grew by at most
// MaxFrameBytes plus a constant (the flood runs to twice the bound and
// more), and it reads one request per line: blank lines get no frame, and
// a request split across lines or two requests on one line are bad
// frames.
func TestServeFrameBound(t *testing.T) {
	s := newTestServer(t, 1)
	var err error
	flood := faultinject.NewFlood(`{"op":"`, 2*MaxFrameBytes+8<<20)
	grew := faultinject.Allocated(func() { err = s.Serve(flood, io.Discard) })
	if !errors.Is(err, ndjson.ErrTooLong) || grew > MaxFrameBytes+4<<20 {
		t.Fatalf("an endless request line: %v after allocating %d bytes, bound %d", err, grew, MaxFrameBytes)
	}

	in := "\n" + `{"op":"join","budget":2}` + "\n \r\n\n" +
		`{"op":"join",` + "\n" + `"budget":1}` + "\n" +
		`{"op":"stats"}{"op":"stats"}` + "\n\t\n"
	var out bytes.Buffer
	if err := newTestServer(t, 1).Serve(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		var frame struct{ Type string }
		if err := json.Unmarshal([]byte(line), &frame); err != nil {
			t.Fatal(err)
		}
		types = append(types, frame.Type)
	}
	if got := strings.Join(types, " "); got != "hello update error error error" {
		t.Fatalf("frames %q for one join, a join split across two lines and two stats on one line:\n%s", got, out.String())
	}
}
