package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/ndjson"
)

// FuzzHandshake feeds arbitrary bytes to both ends of the cluster join
// exchange: the coordinator's register check (acceptRegistration, under an
// empty and a set auth token) and the worker's reading of the
// coordinator's reply (registerHandshake). Neither may panic or hang. The
// coordinator must accept exactly when the first frame is a register
// frame at ProtocolVersion with the configured token; the worker must
// accept exactly when it is a hello at ProtocolVersion with an empty
// Error, and then adopt the reply's heartbeat cadence.
func FuzzHandshake(f *testing.F) {
	for _, pin := range wireFramePins {
		if pin.msg.Type == wireHello || pin.msg.Type == wireRegister {
			f.Add([]byte(pin.want + "\n"))
		}
	}
	for _, seed := range []string{
		`{"type":"register","version":2,"tasks":["conformance/draw"]}`,
		`{"type":"register","version":2,"token":"s3cret"}`,
		`{"type":"register","version":3,"token":"s3cret"}`,                        // wrong version
		`{"type":"register","version":2,"token":"wrong"}`,                         // wrong token
		`{"type":"hello","version":2,"tasks":["a"],"heartbeat_ms":1500}`,          // a reply
		`{"type":"hello","version":1,"tasks":["a"]}`,                              // v1 coordinator
		`{"type":"hello","version":2,"error":"protocol version mismatch"}`,        // rejection
		`{"type":"hello","version":2,"heartbeat_ms":-5}`,                          // nonsense cadence
		`{"type":"hello","version":2,"task":"conformance/draw","token":"s3cret"}`, // a hello with a task
		`{"type":"job","job":0,"task":"conformance/draw","seed":1}`,               // no handshake at all
		`{"type":"register","version":2,"tok`,                                     // truncated JSON
		`{"type":"hello","version":"2"}`,                                          // mistyped field
		`{"type":"hello","version":2}{"type":"register","version":2}`,             // trailing frame
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first wireMsg
		frames := frameLines(data)
		decoded := len(frames) > 0 && json.Unmarshal(frames[0], &first) == nil
		for _, token := range []string{"", "s3cret"} {
			want := decoded && first.Type == wireRegister && first.Version == ProtocolVersion && first.Token == token
			tasks, err := acceptRegistration(json.NewEncoder(io.Discard), ndjson.NewReader(bytes.NewReader(data), maxFrameBytes), token, time.Second)
			if (err == nil) != want {
				t.Fatalf("token %q: acceptRegistration(%q) = %v, want accept = %v", token, data, err, want)
			}
			if err == nil && !slices.Equal(tasks, first.Tasks) {
				t.Fatalf("token %q: acceptRegistration returned tasks %q, frame announced %q", token, tasks, first.Tasks)
			}
		}
		want := decoded && first.Type == wireHello && first.Version == ProtocolVersion && first.Error == ""
		heartbeat, err := registerHandshake(json.NewEncoder(io.Discard), ndjson.NewReader(bytes.NewReader(data), maxFrameBytes), "s3cret")
		if (err == nil) != want {
			t.Fatalf("registerHandshake(%q) = %v, want accept = %v", data, err, want)
		}
		if err == nil && heartbeat != time.Duration(first.HeartbeatMillis)*time.Millisecond {
			t.Fatalf("registerHandshake(%q) adopted heartbeat %v, reply advertised %d ms", data, heartbeat, first.HeartbeatMillis)
		}
	})
}
