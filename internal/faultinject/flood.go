package faultinject

import (
	"io"
	"runtime"
)

// Flood is the adversary of a frame reader: a peer whose frame never ends.
// Read yields the prefix and then filler bytes, never a newline, up to
// limit bytes in all, and then io.EOF. The filler is the letter a, so a
// prefix that opens a JSON string keeps a JSON decoder reading. A reader
// with a frame bound gives up after the bound; one without buffers the
// whole stream.
type Flood struct {
	prefix      string
	limit, sent int64
}

// NewFlood returns a Flood of limit bytes that starts with prefix.
func NewFlood(prefix string, limit int64) *Flood {
	return &Flood{prefix: prefix, limit: limit}
}

// Read implements io.Reader.
func (f *Flood) Read(p []byte) (int, error) {
	if f.sent >= f.limit {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), f.limit-f.sent)]
	n := 0
	if f.sent < int64(len(f.prefix)) {
		n = copy(p, f.prefix[f.sent:])
	}
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	f.sent += int64(len(p))
	return len(p), nil
}

// Allocated runs f and returns the bytes the heap allocated meanwhile, by
// every goroutine (the growth of runtime.MemStats.TotalAlloc). It bounds
// the heap's peak growth over the call from above, garbage included.
func Allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
