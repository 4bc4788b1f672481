package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/ndjson"
)

// wireFramePins are the exact bytes of every frame kind still sent. The
// pins are the compatibility contract with remote workers: a change here
// is a wire change and needs a ProtocolVersion review. In particular the job frame
// must carry "seed":0 explicitly — a zero seed is a legitimate JobSeed
// value, and eliding it (the old omitempty) made "seed absent" and "seed 0"
// indistinguishable to a version-skewed peer.
var wireFramePins = []struct {
	desc string
	msg  wireMsg
	want string
}{
	{
		"job frame with zero seed",
		wireMsg{Type: wireJob, Job: 0, Task: "t", Params: json.RawMessage(`{"p":1}`), Seed: 0},
		`{"type":"job","job":0,"task":"t","params":{"p":1},"seed":0}`,
	},
	{
		// v2: a connection's later job frames of a batch omit params —
		// the worker reuses the params its first frame carried.
		"continuation job frame without params",
		wireMsg{Type: wireJob, Job: 7, Task: "t", Seed: 12345},
		`{"type":"job","job":7,"task":"t","seed":12345}`,
	},
	{
		"first job frame of a batch with null params",
		wireMsg{Type: wireJob, Job: 2, Task: "t", Params: paramsBlob(nil), Seed: 9},
		`{"type":"job","job":2,"task":"t","params":null,"seed":9}`,
	},
	{
		"result frame with value",
		wireMsg{Type: wireResult, Job: 3, Value: json.RawMessage(`{"x":2}`)},
		`{"type":"result","job":3,"seed":0,"value":{"x":2}}`,
	},
	{
		"result frame with job error",
		wireMsg{Type: wireResult, Job: 4, Error: "boom"},
		`{"type":"result","job":4,"seed":0,"error":"boom"}`,
	},
	{
		"register frame",
		wireMsg{Type: wireRegister, Version: ProtocolVersion, Tasks: []string{"a"}, Token: "s3cret"},
		`{"type":"register","job":0,"seed":0,"version":2,"tasks":["a"],"token":"s3cret"}`,
	},
	{
		"register reply with heartbeat cadence",
		wireMsg{Type: wireHello, Version: ProtocolVersion, Tasks: []string{"a"}, HeartbeatMillis: 2000},
		`{"type":"hello","job":0,"seed":0,"version":2,"tasks":["a"],"heartbeat_ms":2000}`,
	},
	{
		"register rejection",
		wireMsg{Type: wireHello, Version: ProtocolVersion, Error: rejectAuthToken},
		`{"type":"hello","job":0,"seed":0,"error":"auth token mismatch (coordinator and worker -auth-token must agree)","version":2}`,
	},
	{
		"heartbeat frame",
		wireMsg{Type: wireHeartbeat},
		`{"type":"heartbeat","job":0,"seed":0}`,
	},
}

// TestWireFrameBytes checks every frame kind against its pinned bytes.
func TestWireFrameBytes(t *testing.T) {
	for _, tc := range wireFramePins {
		got, err := json.Marshal(&tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.desc, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.desc, got, tc.want)
		}
	}
}

// TestWireSeedZeroRoundTrips is the decoder side of the omitempty fix: a
// frame carrying seed 0 and a frame built by an old binary that dropped the
// field decode differently only in that the former is explicit on the wire.
func TestWireSeedZeroRoundTrips(t *testing.T) {
	var m wireMsg
	if err := json.Unmarshal([]byte(`{"type":"job","job":1,"task":"t","seed":0}`), &m); err != nil {
		t.Fatal(err)
	}
	if m.Seed != 0 || m.Task != "t" {
		t.Fatalf("decoded %+v", m)
	}
	enc, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc, []byte(`"seed":0`)) {
		t.Fatalf("re-encoded frame lost the zero seed: %s", enc)
	}
}

// framed is one end of an in-memory protocol connection.
type framed struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *ndjson.Reader
}

// newTestPipes returns the client and server ends of a synchronous
// in-memory connection with JSON framing.
func newTestPipes(t *testing.T) (client, server *framed) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	return &framed{c, json.NewEncoder(c), ndjson.NewReader(c, maxFrameBytes)},
		&framed{s, json.NewEncoder(s), ndjson.NewReader(s, maxFrameBytes)}
}

// TestRegisterHandshake exercises both ends of the cluster join exchange.
func TestRegisterHandshake(t *testing.T) {
	t.Run("accept advertises heartbeat cadence and tasks", func(t *testing.T) {
		client, server := newTestPipes(t)
		type accepted struct {
			tasks []string
			err   error
		}
		srv := make(chan accepted, 1)
		go func() {
			tasks, err := acceptRegistration(server.enc, server.dec, "", 1500*time.Millisecond)
			srv <- accepted{tasks, err}
		}()
		hb, err := registerHandshake(client.enc, client.dec, "")
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		if hb != 1500*time.Millisecond {
			t.Fatalf("worker adopted heartbeat %v, want 1.5s", hb)
		}
		got := <-srv
		if got.err != nil {
			t.Fatalf("coordinator: %v", got.err)
		}
		// The worker announces its full registry; the conformance tasks are
		// registered in this test binary.
		found := false
		for _, task := range got.tasks {
			if task == "conformance/draw" {
				found = true
			}
		}
		if !found {
			t.Fatalf("registration announced %v, missing conformance/draw", got.tasks)
		}
	})
	t.Run("auth token mismatch rejected", func(t *testing.T) {
		client, server := newTestPipes(t)
		srvErr := make(chan error, 1)
		go func() {
			_, err := acceptRegistration(server.enc, server.dec, "s3cret", time.Second)
			srvErr <- err
		}()
		_, err := registerHandshake(client.enc, client.dec, "wrong")
		if err == nil || !strings.Contains(err.Error(), "auth token mismatch") {
			t.Fatalf("worker error %v, want auth-token rejection", err)
		}
		if err := <-srvErr; err == nil {
			t.Fatal("coordinator should report the rejection")
		}
	})
	t.Run("version skew rejected", func(t *testing.T) {
		client, server := newTestPipes(t)
		srvErr := make(chan error, 1)
		go func() {
			_, err := acceptRegistration(server.enc, server.dec, "", time.Second)
			srvErr <- err
		}()
		// A future worker: same register frame, higher version.
		if err := client.enc.Encode(&wireMsg{Type: wireRegister, Version: ProtocolVersion + 1}); err != nil {
			t.Fatal(err)
		}
		var reply wireMsg
		if err := client.dec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.Error == "" || !strings.Contains(reply.Error, "version mismatch") {
			t.Fatalf("reply %+v, want a version-mismatch rejection", reply)
		}
		if err := <-srvErr; err == nil {
			t.Fatal("coordinator should reject version skew")
		}
	})
	t.Run("v1 worker rejected", func(t *testing.T) {
		client, server := newTestPipes(t)
		srvErr := make(chan error, 1)
		go func() {
			_, err := acceptRegistration(server.enc, server.dec, "", time.Second)
			srvErr <- err
		}()
		if err := client.enc.Encode(&wireMsg{Type: wireRegister, Version: 1, Tasks: []string{"conformance/draw"}}); err != nil {
			t.Fatal(err)
		}
		var reply wireMsg
		if err := client.dec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if want := "protocol version mismatch: worker v1, coordinator v2"; reply.Error != want {
			t.Fatalf("reply %+v, want rejection %q", reply, want)
		}
		if err := <-srvErr; err == nil {
			t.Fatal("coordinator should reject a v1 worker")
		}
	})
	t.Run("v1 coordinator rejected", func(t *testing.T) {
		client, server := newTestPipes(t)
		go func() {
			var reg wireMsg
			server.dec.Decode(&reg)
			server.enc.Encode(&wireMsg{Type: wireHello, Version: 1, HeartbeatMillis: 1000})
		}()
		_, err := registerHandshake(client.enc, client.dec, "")
		if err == nil || !errors.Is(err, errRegisterRejected) ||
			!strings.HasSuffix(err.Error(), "protocol version mismatch: worker v2, coordinator v1") {
			t.Fatalf("worker error %v, want a permanent v1 version-skew rejection", err)
		}
	})
	t.Run("non-register first frame rejected", func(t *testing.T) {
		client, server := newTestPipes(t)
		srvErr := make(chan error, 1)
		go func() {
			_, err := acceptRegistration(server.enc, server.dec, "", time.Second)
			srvErr <- err
		}()
		if err := client.enc.Encode(&wireMsg{Type: wireJob, Job: 0, Task: "t"}); err != nil {
			t.Fatal(err)
		}
		var reply wireMsg
		if err := client.dec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.Error == "" {
			t.Fatalf("reply %+v, want a rejection", reply)
		}
		if err := <-srvErr; err == nil {
			t.Fatal("coordinator should reject a job before register")
		}
	})
}

func TestSplitWorkerAddr(t *testing.T) {
	for _, tc := range []struct {
		in, network, address string
		wantErr              bool
	}{
		{"127.0.0.1:9000", "tcp", "127.0.0.1:9000", false},
		{":9000", "tcp", ":9000", false},
		{"host.example:80", "tcp", "host.example:80", false},
		{"tcp:10.0.0.1:1234", "tcp", "10.0.0.1:1234", false},
		{"unix:/tmp/w.sock", "unix", "/tmp/w.sock", false},
		{"/tmp/w.sock", "unix", "/tmp/w.sock", false},
		{"./w.sock", "unix", "./w.sock", false},
		{"worker.sock", "unix", "worker.sock", false},
		{"", "", "", true},
		{"   ", "", "", true},
	} {
		network, address, err := splitWorkerAddr(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: want error", tc.in)
			}
			continue
		}
		if err != nil || network != tc.network || address != tc.address {
			t.Errorf("%q: got (%q, %q, %v), want (%q, %q)", tc.in, network, address, err, tc.network, tc.address)
		}
	}
}
