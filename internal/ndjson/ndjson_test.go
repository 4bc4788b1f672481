package ndjson

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/multiradio/chanalloc/internal/faultinject"
)

// readAll returns every frame Next yields and the error that ended them.
func readAll(rd *Reader) ([]string, error) {
	var frames []string
	for {
		line, err := rd.Next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, string(line))
	}
}

// TestReaderFraming pins the framing rule: one frame per line, blank lines
// skipped, the last line may end at EOF without its newline, and a frame
// split across lines or two frames on one line reach the caller as the
// lines they are, so neither decodes.
func TestReaderFraming(t *testing.T) {
	for _, tc := range []struct {
		desc, in string
		want     []string
	}{
		{"frames", "{\"a\":1}\n{\"b\":2}\n", []string{`{"a":1}`, `{"b":2}`}},
		{"blank lines", "\n  \n{\"a\":1}\n\t\r\n\n{\"b\":2}\n\n", []string{`{"a":1}`, `{"b":2}`}},
		{"carriage return kept", "{\"a\":1}\r\n", []string{"{\"a\":1}\r"}},
		{"last line without newline", "{\"a\":1}\n{\"b\":2}", []string{`{"a":1}`, `{"b":2}`}},
		{"split across lines", "{\"a\":\n1}\n", []string{`{"a":`, `1}`}},
		{"two frames on one line", "{\"a\":1}{\"b\":2}\n", []string{`{"a":1}{"b":2}`}},
		{"empty", "", nil},
		{"blank only", "\n \n", nil},
	} {
		got, err := readAll(NewReader(strings.NewReader(tc.in), 64))
		if err != io.EOF || strings.Join(got, "|") != strings.Join(tc.want, "|") || len(got) != len(tc.want) {
			t.Errorf("%s: frames %q, %v; want %q, EOF", tc.desc, got, err, tc.want)
		}
	}
	var v map[string]int
	for _, in := range []string{"{\"a\":\n1}\n", "{\"a\":1}{\"b\":2}\n"} {
		if err := NewReader(strings.NewReader(in), 64).Decode(&v); err == nil {
			t.Errorf("Decode(%q) = nil, want a syntax error", in)
		}
	}
	if err := NewReader(strings.NewReader(" \n{\"a\":7}\n"), 64).Decode(&v); err != nil || v["a"] != 7 {
		t.Errorf("Decode after a blank line: %v, %v", v, err)
	}
}

// TestReaderBound pins the bound: a line of exactly max bytes is a frame,
// one byte more is an error wrapping ErrTooLong, and the error sticks.
func TestReaderBound(t *testing.T) {
	const max = 10
	frame := strings.Repeat("x", max)
	got, err := readAll(NewReader(strings.NewReader(frame+"\n"+frame), max))
	if err != io.EOF || len(got) != 2 {
		t.Fatalf("two frames of the bound: %q, %v", got, err)
	}
	rd := NewReader(strings.NewReader(frame+"\n"+frame+"x\n"+frame+"\n"), max)
	got, err = readAll(rd)
	if !errors.Is(err, ErrTooLong) || len(got) != 1 {
		t.Fatalf("a line past the bound: %q, %v; want one frame and ErrTooLong", got, err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrTooLong) {
		t.Fatalf("after ErrTooLong, Next = %v", err)
	}
	if _, err := readAll(NewReader(strings.NewReader(frame+"x"), max)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("an unterminated last line past the bound: %v", err)
	}
}

// TestReaderSetMax: raising the bound keeps the bytes already buffered. A
// bound of 10 reads at most 11 bytes at a time, so the first frame's read
// also buffers the start of the second, which is past the first bound.
func TestReaderSetMax(t *testing.T) {
	long := strings.Repeat("y", 20)
	rd := NewReader(strings.NewReader("short\n"+long+"\n"), 10)
	if line, err := rd.Next(); err != nil || string(line) != "short" {
		t.Fatalf("first frame %q, %v", line, err)
	}
	rd.SetMax(32)
	if line, err := rd.Next(); err != nil || string(line) != long {
		t.Fatalf("after raising the bound: %q, %v; want %q", line, err, long)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v", err)
	}
}

// TestReaderReadError: a read error that cuts the stream mid-line ends it
// with that error, not with the cut line as a frame.
func TestReaderReadError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("{\"a\":1}\n{\"b\""), iotest.ErrReader(boom))
	got, err := readAll(NewReader(r, 64))
	if err != boom || len(got) != 1 {
		t.Fatalf("frames %q, %v; want one frame and the read error", got, err)
	}
	if _, err := NewReader(iotest.ErrReader(nil), 64).Next(); err != io.ErrNoProgress {
		t.Fatalf("a reader that never makes progress: %v", err)
	}
}

// TestReaderMemory: a peer that never ends its frame costs at most the
// bound plus a constant, and a long legitimate frame read at that bound
// costs no more.
func TestReaderMemory(t *testing.T) {
	const max = 8 << 20
	var err error
	flood := faultinject.NewFlood(`{"a":"`, 4*max)
	grew := faultinject.Allocated(func() { _, err = NewReader(flood, max).Next() })
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("Next = %v, want ErrTooLong", err)
	}
	if grew > max+2*maxDoubling+64<<10 {
		t.Fatalf("reading the flood allocated %d bytes, bound %d", grew, max)
	}
	// The same flood, ended by a newline inside the bound, is a frame.
	frame := io.MultiReader(faultinject.NewFlood(`{"a":"`, max-2), strings.NewReader("\"}\n"))
	var line []byte
	grew = faultinject.Allocated(func() { line, err = NewReader(frame, max).Next() })
	if err != nil || len(line) != max || grew > max+2*maxDoubling+64<<10 {
		t.Fatalf("frame of %d bytes, %v, allocated %d bytes", len(line), err, grew)
	}
}

// TestReaderReusesBuffer: frames that fit the buffer allocate nothing, so
// one connection grows one buffer and keeps it.
func TestReaderReusesBuffer(t *testing.T) {
	frame := []byte(`{"type":"result","job":3,"seed":0,"value":{"x":2}}` + "\n")
	stream := bytes.Repeat(frame, 1000)
	rd := NewReader(bytes.NewReader(stream), 1<<20)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocated %v times a frame, want 0", allocs)
	}
}

// FuzzReader: for arbitrary bytes and a bound, read in chunks of every
// size, the reader never panics, never returns a frame longer than the
// bound, and its frames are the input's non-blank lines, up to the first
// line past the bound, where it returns ErrTooLong.
func FuzzReader(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n\n{\"b\":2}"), uint16(64), uint8(0))
	f.Add([]byte("{\"a\":\n1}\n{\"a\":1}{\"b\":2}\r\n \t\n"), uint16(8), uint8(1))
	f.Add([]byte("xxxxxxxxxx\nyy"), uint16(9), uint8(2))
	f.Add([]byte("\n\n\n"), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, bound uint16, chunking uint8) {
		max := int(bound)
		var want []string
		tooLong := false
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > max {
				tooLong = true
				break
			}
			if len(bytes.Trim(line, " \t\r")) > 0 {
				want = append(want, string(line))
			}
		}
		var r io.Reader = bytes.NewReader(data)
		switch chunking % 4 {
		case 1:
			r = iotest.OneByteReader(r)
		case 2:
			r = iotest.HalfReader(r)
		case 3:
			r = iotest.DataErrReader(r)
		}
		rd := NewReader(r, max)
		for i := 0; ; i++ {
			line, err := rd.Next()
			if err != nil {
				if tooLong != errors.Is(err, ErrTooLong) || (!tooLong && err != io.EOF) {
					t.Fatalf("ended with %v; a line past the bound %d: %v", err, max, tooLong)
				}
				if i != len(want) {
					t.Fatalf("%d frames, want %d", i, len(want))
				}
				return
			}
			if len(line) > max {
				t.Fatalf("frame of %d bytes past the bound %d", len(line), max)
			}
			if i >= len(want) || string(line) != want[i] {
				t.Fatalf("frame %d is %q, want the lines %q", i, line, want)
			}
		}
	})
}
