// Package ndjson reads newline-delimited JSON, the framing of every
// connection in the repository: allocd's churn events, the engine's
// worker protocol and the distributed protocol's token ring. A frame is
// one JSON value on one line, and every writer (a json.Encoder) ends each
// frame with exactly one newline. A Reader hands the frames back a line
// at a time, up to a byte bound its caller states, so a peer can make it
// buffer no more than one frame of that size.
//
// The line is the frame: a value split across lines, or two values on one
// line, does not decode, where a json.Decoder would accept both. Blank
// lines (empty or white space only) are skipped, and the last line of a
// stream may end at EOF without its newline.
package ndjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrTooLong reports a line past the Reader's bound.
var ErrTooLong = errors.New("ndjson: frame too long")

const (
	// minBuffer is a Reader's first buffer.
	minBuffer = 4 << 10
	// maxDoubling is the largest buffer reached by doubling. A line that
	// outgrows it gets one buffer of the whole bound, so reading any line
	// allocates at most the bound plus twice this much; that buffer is
	// given back once everything in it has been read.
	maxDoubling = 1 << 20
)

// Reader reads the frames of one stream. It is not safe for concurrent
// use.
type Reader struct {
	rd   io.Reader
	max  int
	buf  []byte
	r, w int   // buf[r:w] holds bytes read but not yet returned
	scan int   // buf[r:scan] holds no newline
	err  error // ends the stream once buf[r:w] is used up
}

// NewReader returns a Reader of the frames in rd, each at most max bytes,
// newline excluded.
func NewReader(rd io.Reader, max int) *Reader {
	return &Reader{rd: rd, max: max}
}

// Next returns the next non-blank line without its newline. The slice is
// valid until the next call. At the end of the stream Next returns io.EOF
// and after a failed read that read's error; a line past the bound
// returns an error wrapping ErrTooLong, and so does every call after it.
func (r *Reader) Next() ([]byte, error) {
	if r.r == r.w && len(r.buf) > maxDoubling {
		r.buf, r.r, r.w, r.scan = nil, 0, 0, 0
	}
	for {
		if i := bytes.IndexByte(r.buf[r.scan:r.w], '\n'); i >= 0 {
			line := r.buf[r.r : r.scan+i]
			r.r, r.scan = r.scan+i+1, r.scan+i+1
			if !blank(line) {
				return line, nil
			}
			continue
		}
		r.scan = r.w
		if r.w-r.r > r.max {
			r.buf, r.r, r.w, r.scan = nil, 0, 0, 0
			r.err = fmt.Errorf("%w: longer than %d bytes", ErrTooLong, r.max)
			return nil, r.err
		}
		if r.err != nil {
			// Only a clean end of stream makes the unterminated rest a
			// line; after a failed read it is a frame cut short.
			line := r.buf[r.r:r.w]
			r.r, r.scan = r.w, r.w
			if r.err == io.EOF && !blank(line) {
				return line, nil
			}
			return nil, r.err
		}
		r.fill()
	}
}

// SetMax changes the bound of the frames the following calls return.
// Bytes already read from the stream stay buffered, so a protocol that
// reads its first frame under a small bound can raise the bound for the
// rest of the stream without losing what the peer sent after that frame.
func (r *Reader) SetMax(max int) { r.max = max }

// Decode reads the next frame and unmarshals it into v.
func (r *Reader) Decode(v any) error {
	line, err := r.Next()
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// fill reads more of the stream into the buffer, first making room: the
// unread bytes move to the front, or, when they fill it, the buffer grows.
// Next calls it only while the unread bytes are within the bound, so the
// buffer never outgrows the bound and its newline.
func (r *Reader) fill() {
	if r.w == len(r.buf) {
		if r.r > 0 {
			n := copy(r.buf, r.buf[r.r:r.w])
			r.scan -= r.r
			r.r, r.w = 0, n
		} else {
			size := max(2*len(r.buf), minBuffer)
			if size > maxDoubling {
				size = r.max + 1
			}
			buf := make([]byte, min(size, r.max+1))
			r.w = copy(buf, r.buf[:r.w])
			r.buf = buf
		}
	}
	for range 100 {
		n, err := r.rd.Read(r.buf[r.w:])
		r.w += n
		if err != nil {
			r.err = err
			return
		}
		if n > 0 {
			return
		}
	}
	r.err = io.ErrNoProgress
}

// blank reports whether line is empty or JSON white space only.
func blank(line []byte) bool {
	for _, b := range line {
		if b != ' ' && b != '\t' && b != '\r' {
			return false
		}
	}
	return true
}
