package dist

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// FuzzRunAgent feeds arbitrary bytes to RunAgent as its coordinator's frame
// stream. Whatever arrives, the agent must not panic, must return well
// within its message timeout once the stream ends, and every row it sends
// must fit the hello it accepted: one entry per channel, none negative, at
// most the announced radios in total.
func FuzzRunAgent(f *testing.F) {
	f.Add([]byte(`{"type":"hello","user":0,"channels":3,"radios":2}
{"type":"token","user":0,"loads":[1,0,2],"row":[0,0,0]}
{"type":"token","user":0,"loads":[1,0,2],"row":[0,1,1]}
{"type":"done","user":0,"matrix":[[0,1,1],[1,0,0]],"ne":true,"converged":true,"rounds":2}
`))
	// The token that once panicked utilityAgainst: loads shorter than the
	// announced channels.
	f.Add([]byte(`{"type":"hello","user":0,"channels":2,"radios":1}
{"type":"token","loads":[1],"row":[0,1]}
`))
	f.Add([]byte(`{"type":"hello","user":1,"channels":1,"radios":1}
{"type":"token","loads":[0],"row":[1]}
{"type":"ack"}
`))
	const timeout = 2 * time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		// The hello bound (maxHelloDP) caps the DP a valid hello can ask
		// for at a few milliseconds, so the stream size only bounds how
		// many tokens arrive; 64 KB of them stays well under the timeout.
		if len(data) > 64<<10 {
			return
		}
		coord, end := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = coord.Write(data)
			coord.Close() // end of stream: the agent sees EOF, not a timeout
		}()
		var rows [][]int
		read := make(chan struct{})
		go func() {
			defer close(read)
			dec := json.NewDecoder(coord)
			for {
				var m message
				if dec.Decode(&m) != nil {
					return
				}
				if m.Type == msgRow {
					rows = append(rows, m.Row)
				}
			}
		}()
		start := time.Now()
		_, _ = RunAgent(end, &BestResponsePolicy{Rate: ratefn.Harmonic{R0: 1, Alpha: 0.5}}, timeout)
		if elapsed := time.Since(start); elapsed > timeout+time.Second {
			t.Fatalf("RunAgent took %v (timeout %v)", elapsed, timeout)
		}
		end.Close()
		<-wrote
		<-read
		// A row is only sent after a hello was accepted, and the hello is
		// the stream's first frame.
		var hello message
		if len(rows) == 0 || json.NewDecoder(bytes.NewReader(data)).Decode(&hello) != nil {
			return
		}
		for _, row := range rows {
			total := 0
			for _, v := range row {
				if v < 0 {
					t.Fatalf("row %v has a negative entry", row)
				}
				total += v
			}
			if len(row) != hello.Channels || total > hello.Radios {
				t.Fatalf("row %v does not fit hello %+v", row, hello)
			}
		}
	})
}
