package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"github.com/multiradio/chanalloc/internal/ndjson"
	"github.com/multiradio/chanalloc/internal/workload"
)

// Message kinds of the wire protocol. Every frame is one JSON object on one
// line, ended by exactly one newline, and read back with the shared line
// reader (internal/ndjson) at maxFrameBytes; unknown fields are ignored so
// the protocol can grow.
const (
	msgHello = "hello" // coordinator -> agent: game parameters + identity
	msgToken = "token" // coordinator -> agent: external loads + current row
	msgRow   = "row"   // agent -> coordinator: the row the device plays
	msgDone  = "done"  // coordinator -> agent: final matrix + verdicts
	msgAck   = "ack"   // agent -> coordinator: final acknowledgement
)

// message is the single frame type of the protocol; fields are populated
// according to Type.
//
// User deliberately has no omitempty: user 0 is a legitimate identity, and
// eliding it would make "hello for user 0" indistinguishable from a hello
// missing the field on the wire — the same bug class as the engine
// protocol's job seed. The frame bytes are pinned in protocol tests.
type message struct {
	Type string `json:"type"`
	// hello
	User     int `json:"user"`
	Channels int `json:"channels,omitempty"`
	Radios   int `json:"radios,omitempty"`
	// token
	Loads []int `json:"loads,omitempty"`
	// token (current) and row (proposal)
	Row []int `json:"row,omitempty"`
	// done
	Matrix    [][]int `json:"matrix,omitempty"`
	NE        bool    `json:"ne,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	Moves     int     `json:"moves,omitempty"`
}

// maxFrameBytes bounds one frame of the protocol, newline excluded.
// Coordinator.Run refuses a game past workload.MaxCells cells, and within
// it every frame takes at most 5 bytes a cell: the done broadcast's matrix
// and a token's loads and row are digits, commas and brackets, and each
// row's radios sum to at most its channel count. At 8 bytes a cell the
// bound leaves the rest for the frames' other fields.
const maxFrameBytes = 8 * workload.MaxCells

// link carries protocol frames between the coordinator and one agent. A
// peer carries them as JSON over a connection; a localLink hands them to an
// in-process agent by direct call.
type link interface {
	send(m *message) error
	recv(wantType string) (*message, error)
}

// peer wraps one conn with JSON framing and a per-message deadline.
type peer struct {
	conn    net.Conn
	enc     *json.Encoder
	rd      *ndjson.Reader
	timeout time.Duration
}

func newPeer(conn net.Conn, timeout time.Duration) *peer {
	return &peer{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		rd:      ndjson.NewReader(conn, maxFrameBytes),
		timeout: timeout,
	}
}

func (p *peer) send(m *message) error {
	if p.timeout > 0 {
		if err := p.conn.SetWriteDeadline(time.Now().Add(p.timeout)); err != nil {
			return fmt.Errorf("dist: setting write deadline: %w", err)
		}
	}
	if err := p.enc.Encode(m); err != nil {
		return fmt.Errorf("dist: sending %s: %w", m.Type, err)
	}
	return nil
}

func (p *peer) recv(wantType string) (*message, error) {
	m, err := p.read(wantType)
	if err != nil {
		return nil, err
	}
	if m.Type != wantType {
		return nil, fmt.Errorf("dist: got %q, want %q", m.Type, wantType)
	}
	return m, nil
}

// read decodes the next frame whatever its type; awaiting names the frame
// expected, for the error.
func (p *peer) read(awaiting string) (*message, error) {
	if p.timeout > 0 {
		if err := p.conn.SetReadDeadline(time.Now().Add(p.timeout)); err != nil {
			return nil, fmt.Errorf("dist: setting read deadline: %w", err)
		}
	}
	var m message
	if err := p.rd.Decode(&m); err != nil {
		return nil, fmt.Errorf("dist: awaiting %s: %w", awaiting, err)
	}
	return &m, nil
}

// maxHelloDP bounds the best-response DP a hello may ask of an agent. The
// DP over C channels and a budget of k radios fills C·(k+1) cells of
// k+1 candidates each, so its time grows as C·(k+1)² and its workspace
// as C·(k+1); a hello past the bound is refused before any DP runs. The
// bound is far above every game the experiments negotiate (32 channels and
// 32 radios need about 35k).
const maxHelloDP = 1 << 22

// checkHello validates a hello's game dimensions: 1 <= radios <= channels
// and channels·(radios+1)² <= maxHelloDP.
func checkHello(channels, radios int) error {
	if channels < 1 || radios < 1 || radios > channels {
		return fmt.Errorf("hello announces %d radios on %d channels, want 1 <= radios <= channels",
			radios, channels)
	}
	// radios < maxHelloDP keeps (radios+1)² from overflowing.
	if r := radios + 1; radios >= maxHelloDP || channels > maxHelloDP/(r*r) {
		return fmt.Errorf("hello announces %d radios on %d channels, past the DP bound channels·(radios+1)² <= %d",
			radios, channels, maxHelloDP)
	}
	return nil
}

// checkRow validates a row against the game's dimensions and radio
// budget. Both ends run it: the coordinator on every proposal it receives,
// an agent on the current row of every token.
func checkRow(row []int, channels, radios int) error {
	if len(row) != channels {
		return fmt.Errorf("row has %d channels, want %d", len(row), channels)
	}
	total := 0
	for c, v := range row {
		if v < 0 {
			return fmt.Errorf("negative radio count %d on channel %d", v, c)
		}
		total += v
	}
	if total > radios {
		return fmt.Errorf("row places %d radios, budget is %d", total, radios)
	}
	return nil
}
