package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/ndjson"
)

// FuzzServeWorker feeds arbitrary NDJSON to the joined worker's serving
// loop. Whatever the input, the worker must not panic or hang, and it must
// answer every job frame it decodes with exactly one result frame for that
// job, in order, until the input ends (nil) or a frame it cannot serve ends
// the session (an error).
func FuzzServeWorker(f *testing.F) {
	for _, pin := range wireFramePins {
		f.Add([]byte(pin.want + "\n"))
	}
	for _, seed := range []string{
		// a batch: params on the first frame, continuations after it
		`{"type":"job","job":0,"task":"conformance/draw","params":{"mul":3,"label":"f"},"seed":1}
{"type":"job","job":1,"task":"conformance/draw","seed":2}
{"type":"job","job":2,"task":"conformance/draw","seed":3}`,
		// a params-less first job: nothing cached yet
		`{"type":"job","job":4,"task":"conformance/draw","seed":9}`,
		// a task switch without params
		`{"type":"job","job":0,"task":"conformance/draw","params":{"mul":3},"seed":1}
{"type":"job","job":1,"task":"conformance/fail","seed":2}`,
		// a malformed params blob, then a continuation that reuses it
		`{"type":"job","job":0,"task":"conformance/draw","params":{"mul":"x"},"seed":1}
{"type":"job","job":1,"task":"conformance/draw","seed":2}`,
		// null params, an unknown task, then a non-job frame
		`{"type":"job","job":0,"task":"conformance/draw","params":null,"seed":1}
{"type":"job","job":1,"task":"nope","params":{},"seed":2}
{"type":"hello","version":2}`,
		// a truncated frame
		`{"type":"job","job":0,"task":"conformance/draw","params":{"mul":`,
		// a hello carrying a task and a token, and a job stream that a
		// stray hello reply interrupts
		`{"type":"hello","job":0,"task":"conformance/draw","seed":0,"version":2,"token":"s3cret"}`,
		`{"type":"job","job":0,"task":"conformance/draw","params":{"mul":3},"seed":1}
{"type":"hello","job":0,"seed":0,"version":2,"tasks":["a","b"]}
{"type":"job","job":1,"task":"conformance/draw","seed":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, serveErr := serveInput(bytes.NewReader(data))

		// The frames the worker owes a result: every job frame among the
		// input's lines before the input ends or a non-job frame or a line
		// that does not decode ends the session.
		var owed []int
		clean := true
		for _, line := range frameLines(data) {
			var m wireMsg
			if json.Unmarshal(line, &m) != nil || m.Type != wireJob {
				clean = false
				break
			}
			owed = append(owed, m.Job)
		}
		if clean != (serveErr == nil) {
			t.Fatalf("session ended with %v, but the input ended cleanly = %v", serveErr, clean)
		}

		results := json.NewDecoder(bytes.NewReader(out))
		for i := 0; ; i++ {
			var r wireMsg
			if err := results.Decode(&r); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("worker wrote an undecodable frame: %v", err)
				}
				if i != len(owed) {
					t.Fatalf("worker answered %d of %d job frames", i, len(owed))
				}
				return
			}
			if i >= len(owed) || r.Type != wireResult || r.Job != owed[i] {
				t.Fatalf("reply %d is %+v; owed jobs %v", i, r, owed)
			}
			if (r.Error == "") == (len(r.Value) == 0) {
				t.Fatalf("reply %+v must carry exactly one of a value and an error", r)
			}
		}
	})
}

// serveInput runs serveJoined on input, the job stream of a coordinator
// that then hangs up, and returns what the worker sent back over its
// net.Pipe connection. The heartbeat is an hour, so every frame sent back
// is a reply.
func serveInput(input io.Reader) ([]byte, error) {
	coord, worker := net.Pipe()
	replies := make(chan []byte, 1)
	go func() {
		out, _ := io.ReadAll(coord)
		replies <- out
	}()
	err := serveJoined(worker, ndjson.NewReader(input, maxFrameBytes), time.Hour)
	worker.Close()
	return <-replies, err
}

// frameLines splits data by the protocol's framing rule: one frame per
// line, blank lines skipped, and the last line may end without its
// newline.
func frameLines(data []byte) [][]byte {
	var frames [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.Trim(line, " \t\r")) > 0 {
			frames = append(frames, line)
		}
	}
	return frames
}

// TestWorkerSessionParamsCache pins the worker side of the v2 params rule
// frame by frame: params are decoded once and reused, a frame with params
// replaces the cache, and a frame whose task has nothing cached fails as a
// job error, never by running against the wrong params.
func TestWorkerSessionParamsCache(t *testing.T) {
	frames := `{"type":"job","job":0,"task":"conformance/count","params":{"mul":2},"seed":1}
{"type":"job","job":1,"task":"conformance/count","seed":2}
{"type":"job","job":2,"task":"conformance/draw","seed":3}
{"type":"job","job":3,"task":"conformance/count","params":{"mul":5},"seed":4}
{"type":"job","job":4,"task":"conformance/count","seed":5}
{"type":"job","job":5,"task":"conformance/count","params":{"mul":"x"},"seed":6}
{"type":"job","job":6,"task":"conformance/count","seed":7}
`
	decodes0 := paramsDecodes.Load()
	out, err := serveInput(strings.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	var replies []wireMsg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var r wireMsg
		if err := dec.Decode(&r); err != nil {
			break
		}
		replies = append(replies, r)
	}
	if len(replies) != 7 {
		t.Fatalf("%d replies to 7 job frames", len(replies))
	}
	decodeOf := func(r wireMsg) int64 {
		t.Helper()
		var res countResult
		if r.Error != "" || json.Unmarshal(r.Value, &res) != nil {
			t.Fatalf("job %d failed: %q", r.Job, r.Error)
		}
		return res.Decode - decodes0
	}
	if a, b := decodeOf(replies[0]), decodeOf(replies[1]); a != 1 || b != 1 {
		t.Fatalf("jobs 0 and 1 ran against decodes %d and %d, want both 1", a, b)
	}
	if !strings.Contains(replies[2].Error, `task "conformance/draw" carries no params`) {
		t.Fatalf("job 2 (task switch without params) replied %+v", replies[2])
	}
	if a, b := decodeOf(replies[3]), decodeOf(replies[4]); a != 2 || b != 2 {
		t.Fatalf("jobs 3 and 4 ran against decodes %d and %d, want both 2", a, b)
	}
	for _, r := range replies[5:] {
		if !strings.HasPrefix(r.Error, `decoding params of task "conformance/count": `) {
			t.Fatalf("job %d after an undecodable params blob replied %+v", r.Job, r)
		}
	}
}

// TestWireNullParamsCarryParams: a first job frame whose batch has no params
// ships "params":null, which must decode as present — an absent field is a
// continuation, null is "decode the zero value".
func TestWireNullParamsCarryParams(t *testing.T) {
	var m wireMsg
	if err := json.Unmarshal([]byte(`{"type":"job","job":0,"task":"t","params":null,"seed":0}`), &m); err != nil {
		t.Fatal(err)
	}
	if string(m.Params) != "null" {
		t.Fatalf("params decoded as %q, want the literal null", m.Params)
	}
}
