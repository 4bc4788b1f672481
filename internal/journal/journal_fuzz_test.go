package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalResume writes arbitrary bytes as a journal file and resumes the
// batch of testHeader(8) from it. Whatever the bytes, Resume must not panic
// or hang, and it must either refuse the file (an error, ErrMismatch among
// them) or accept it with:
//   - a first line that parses as this batch's header — a foreign or
//     corrupt header is never accepted;
//   - entries that are digest-valid, in range and unique, no more than the
//     file has entry lines;
//   - a rewritten file that recovers to exactly the accepted prefix and
//     takes further appends.
func FuzzJournalResume(f *testing.F) {
	want := testHeader(8)
	var valid bytes.Buffer
	for _, line := range journalLines(f, want, entryFor(0), entryFor(3),
		Entry{Job: 5, Failed: true, Error: "boom"}) {
		valid.WriteString(line + "\n")
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-7])                                             // torn tail
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"job":3`), []byte(`"job":4`), 1))     // mid-file corruption
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"seed":42`), []byte(`"seed":43`), 1)) // foreign header
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"job":3`), []byte(`"job":0`), 1))     // duplicate, digest intact
	// a value the engine would never write — spaced, with an HTML-escapable
	// string — under a valid digest
	odd := Entry{Job: 1, Value: json.RawMessage(`{"a": "<b>"}`)}
	f.Add([]byte(journalLines(f, want)[0] + "\n" +
		fmt.Sprintf(`{"job":1,"value":%s,"sha":%q}`, odd.Value, odd.digest()) + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"v":1,"task":"test/task"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, entries, err := Resume(path, want, 1)
		if err != nil {
			return // refused
		}
		defer j.Close()

		first, _, _ := bytes.Cut(data, []byte("\n"))
		var stored Header
		if json.Unmarshal(first, &stored) != nil || stored.V != Version ||
			stored.Task != want.Task || stored.ParamsSHA != want.ParamsSHA ||
			stored.Seed != want.Seed || stored.Jobs != want.Jobs {
			t.Fatalf("accepted a journal whose header %q is not this batch's", first)
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; len(entries) > lines-1 {
			t.Fatalf("recovered %d entries from %d lines", len(entries), lines)
		}
		seen := map[int]bool{}
		for _, e := range entries {
			if e.SHA != e.digest() {
				t.Fatalf("accepted job %d with a bad digest", e.Job)
			}
			if e.Job < 0 || e.Job >= want.Jobs {
				t.Fatalf("accepted out-of-range job %d", e.Job)
			}
			if seen[e.Job] {
				t.Fatalf("accepted job %d twice", e.Job)
			}
			seen[e.Job] = true
		}

		if extra := entryFor(want.Jobs - 1); !seen[extra.Job] {
			if err := j.Append(extra); err != nil {
				t.Fatal(err)
			}
			extra.SHA = extra.digest()
			entries = append(entries, extra)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		h, again, err := Recover(path)
		if err != nil {
			t.Fatalf("the resumed journal no longer recovers: %v", err)
		}
		if h.Task != want.Task || h.Seed != want.Seed || h.Jobs != want.Jobs || h.ParamsSHA != want.ParamsSHA {
			t.Fatalf("resumed journal rewrote the header to %+v", h)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("resumed journal recovers %+v, want the accepted %+v plus the append", again, entries)
		}
	})
}

// journalLines renders a journal for h holding entries, one line each.
func journalLines(tb testing.TB, h Header, entries ...Entry) []string {
	tb.Helper()
	h.V = Version
	head, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	lines := []string{string(head)}
	for _, e := range entries {
		e.SHA = e.digest()
		line, err := json.Marshal(&e)
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	return lines
}
