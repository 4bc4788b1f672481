package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"
	"time"
)

// FuzzHandshake feeds arbitrary bytes to both server ends of the opening
// exchange: the socket worker's hello (serverHandshake) and the cluster
// coordinator's register (acceptRegistration), each under an empty and a
// set auth token. Neither may panic or hang, and each must accept exactly
// when the first JSON value is its opening frame at ProtocolVersion with
// the configured token — and, for a hello, an empty or registered task.
func FuzzHandshake(f *testing.F) {
	for _, pin := range wireFramePins {
		if pin.msg.Type == wireHello || pin.msg.Type == wireRegister {
			f.Add([]byte(pin.want + "\n"))
		}
	}
	for _, seed := range []string{
		`{"type":"hello","version":2,"task":"conformance/draw"}`,
		`{"type":"hello","version":1,"task":"conformance/draw"}`,                  // wrong version
		`{"type":"hello","version":2,"task":"conformance/draw","token":"wrong"}`,  // wrong token
		`{"type":"hello","version":2,"task":"conformance/nope","token":"s3cret"}`, // unknown task
		`{"type":"register","version":2,"tasks":["conformance/draw"]}`,            // register sent to a worker
		`{"type":"register","version":3,"token":"s3cret"}`,                        // wrong version
		`{"type":"job","job":0,"task":"conformance/draw","seed":1}`,               // no handshake at all
		`{"type":"hello","version":2,"tok`,                                        // truncated JSON
		`{"type":"hello","version":"2"}`,                                          // mistyped field
		`{"type":"hello","version":2}{"type":"register","version":2}`,             // trailing frame
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first wireMsg
		decoded := json.NewDecoder(bytes.NewReader(data)).Decode(&first) == nil
		for _, token := range []string{"", "s3cret"} {
			opens := func(typ string) bool {
				return decoded && first.Type == typ && first.Version == ProtocolVersion && first.Token == token
			}
			_, known := taskByName(first.Task)
			wantHello := opens(wireHello) && (first.Task == "" || known)
			err := serverHandshake(json.NewEncoder(io.Discard), json.NewDecoder(bytes.NewReader(data)), token)
			if (err == nil) != wantHello {
				t.Fatalf("token %q: serverHandshake(%q) = %v, want accept = %v", token, data, err, wantHello)
			}
			tasks, err := acceptRegistration(json.NewEncoder(io.Discard), json.NewDecoder(bytes.NewReader(data)), token, time.Second)
			if (err == nil) != opens(wireRegister) {
				t.Fatalf("token %q: acceptRegistration(%q) = %v, want accept = %v", token, data, err, opens(wireRegister))
			}
			if err == nil && !slices.Equal(tasks, first.Tasks) {
				t.Fatalf("token %q: acceptRegistration returned tasks %q, frame announced %q", token, tasks, first.Tasks)
			}
		}
	})
}
