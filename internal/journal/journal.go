// Package journal persists remote-batch progress as an append-only NDJSON
// checkpoint file, so a coordinator killed mid-sweep can restart, skip the
// jobs it already completed, and fan in results byte-identical to an
// uninterrupted run.
//
// Grammar (one JSON object per line):
//
//	line 1   header  {"v":1,"task":"sweep/experiment","params_sha":"…","seed":42,"jobs":12}
//	line 2+  entry   {"job":3,"value":<result JSON>,"sha":"…"}
//	                 {"job":7,"failed":true,"error":"…","sha":"…"}
//
// The header pins the batch's identity — task name, SHA-256 of the params
// blob, root seed, job count — so a journal can never silently resume a
// DIFFERENT batch: any mismatch on resume is a hard error. Entries carry
// the full result bytes (resume must reproduce the fan-in exactly, and
// results are the engine's own compact JSON — re-deriving them is what
// we're trying to avoid) plus a SHA-256 self-check over the payload.
//
// Crash tolerance is asymmetric by design. A torn TAIL — the coordinator
// died mid-write, leaving a final line that is incomplete or fails its
// digest — is expected and silently truncated: that job simply re-runs.
// Corruption anywhere EARLIER (an invalid line with valid lines after it)
// means the file was damaged by something other than our own crash, and
// recovery refuses rather than resume from a lie.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Version is the journal file format version, written in every header.
const Version = 1

// Header identifies the batch a journal belongs to. Two runs resume-match
// exactly when every field agrees.
type Header struct {
	V         int    `json:"v"`
	Task      string `json:"task"`
	ParamsSHA string `json:"params_sha"`
	Seed      uint64 `json:"seed"`
	Jobs      int    `json:"jobs"`
}

// Entry records one completed job: its index, the raw result bytes exactly
// as the worker returned them (or the job's error), and a SHA-256
// self-check over the payload.
type Entry struct {
	Job    int             `json:"job"`
	Value  json.RawMessage `json:"value,omitempty"`
	Failed bool            `json:"failed,omitempty"`
	Error  string          `json:"error,omitempty"`
	SHA    string          `json:"sha"`
}

// ParamsDigest is the canonical hash of a batch's params blob for the
// header's params_sha field.
func ParamsDigest(params []byte) string {
	sum := sha256.Sum256(params)
	return hex.EncodeToString(sum[:])
}

// digest computes an entry's self-check: the hash covers the failure bit so
// a success and a failure can never swap payloads undetected.
func (e *Entry) digest() string {
	h := sha256.New()
	if e.Failed {
		io.WriteString(h, "failed:")
		io.WriteString(h, e.Error)
	} else {
		io.WriteString(h, "value:")
		h.Write(e.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Journal is an open checkpoint file in append mode.
type Journal struct {
	f          *os.File
	w          *bufio.Writer
	fsyncEvery int
	unsynced   int
	writes     int
}

// Create starts a fresh journal at path, truncating anything already there,
// and writes the header. fsyncEvery is the durability cadence: fsync after
// every n appends (n <= 1 means every append — the safe default; larger
// values trade a crash losing up to n-1 checkpoints for fewer disk stalls).
func Create(path string, h Header, fsyncEvery int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", path, err)
	}
	j := newJournal(f, fsyncEvery)
	h.V = Version
	line, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: encoding header: %w", err)
	}
	if err := j.writeLine(line); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

func newJournal(f *os.File, fsyncEvery int) *Journal {
	if fsyncEvery < 1 {
		fsyncEvery = 1
	}
	return &Journal{f: f, w: bufio.NewWriter(f), fsyncEvery: fsyncEvery}
}

// Append checkpoints one completed job, stamping its digest, and syncs when
// the fsync cadence says so.
func (j *Journal) Append(e Entry) error {
	e.SHA = e.digest()
	line, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("journal: encoding entry for job %d: %w", e.Job, err)
	}
	if err := j.writeLine(line); err != nil {
		return err
	}
	j.writes++
	j.unsynced++
	if j.unsynced >= j.fsyncEvery {
		return j.Sync()
	}
	return nil
}

// Writes reports how many entries this handle has appended (obs feed).
func (j *Journal) Writes() int { return j.writes }

func (j *Journal) writeLine(line []byte) error {
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	return nil
}

// Sync flushes buffered lines and fsyncs the file.
func (j *Journal) Sync() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.unsynced = 0
	return nil
}

// Close syncs and closes the file.
func (j *Journal) Close() error {
	syncErr := j.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Recover reads a journal back: the header plus every valid entry, in file
// order (duplicates possible only if two coordinators raced one file — the
// caller keeps the first). A torn tail — final line incomplete, invalid
// JSON, or failing its digest — is dropped silently; an invalid line with
// valid lines AFTER it is corruption and a hard error.
func Recover(path string) (Header, []Entry, error) {
	h, entries, _, err := recoverLines(path)
	return h, entries, err
}

// recoverLines is Recover plus each entry's line exactly as it was read, so
// Resume can rewrite the recovered prefix byte for byte: re-encoding an
// entry could change its value's bytes (spacing, escaping) and with them
// its digest.
func recoverLines(path string) (Header, []Entry, [][]byte, error) {
	var h Header
	data, err := os.ReadFile(path)
	if err != nil {
		return h, nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed file ends in '\n', so the final split element is empty;
	// anything else is a torn last line (no newline made it to disk).
	torn := false
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	} else {
		torn = true
	}
	if len(lines) == 0 {
		return h, nil, nil, fmt.Errorf("journal: %s is empty", path)
	}
	if err := json.Unmarshal(lines[0], &h); err != nil {
		if len(lines) == 1 && torn {
			return h, nil, nil, fmt.Errorf("journal: %s: header line torn (crash during create?): %w", path, err)
		}
		return h, nil, nil, fmt.Errorf("journal: %s: parsing header: %w", path, err)
	}
	if h.V != Version {
		return h, nil, nil, fmt.Errorf("journal: %s: format v%d, this binary speaks v%d", path, h.V, Version)
	}
	var entries []Entry
	var raw [][]byte
	for i, line := range lines[1:] {
		last := i == len(lines)-2
		var e Entry
		bad := ""
		if err := json.Unmarshal(line, &e); err != nil {
			bad = err.Error()
		} else if e.Job < 0 || (h.Jobs > 0 && e.Job >= h.Jobs) {
			bad = fmt.Sprintf("job index %d out of range [0,%d)", e.Job, h.Jobs)
		} else if e.SHA != e.digest() {
			bad = "entry digest mismatch"
		}
		if bad != "" {
			if last {
				// The coordinator died mid-append; the job just re-runs.
				break
			}
			return h, nil, nil, fmt.Errorf("journal: %s: line %d corrupt with valid lines after it (%s) — refusing to resume", path, i+2, bad)
		}
		entries = append(entries, e)
		raw = append(raw, line)
	}
	return h, entries, raw, nil
}

// ErrMismatch tags a resume against a journal whose header does not match
// the batch being run — wrong task, params, seed or job count.
var ErrMismatch = errors.New("journal: batch identity mismatch")

// Resume opens path for a batch described by h. If the file does not exist
// this degenerates to Create (a fresh journal, no recovered entries).
// Otherwise the stored header must match h exactly, the valid prefix is
// recovered (first entry wins per job index), the file is truncated past it
// — discarding any torn tail — and the journal reopens in append mode.
func Resume(path string, h Header, fsyncEvery int) (*Journal, []Entry, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		j, err := Create(path, h, fsyncEvery)
		return j, nil, err
	}
	stored, entries, lines, err := recoverLines(path)
	if err != nil {
		return nil, nil, err
	}
	if stored.Task != h.Task || stored.ParamsSHA != h.ParamsSHA || stored.Seed != h.Seed || stored.Jobs != h.Jobs {
		return nil, nil, fmt.Errorf("%w: journal %s holds task=%q params_sha=%s seed=%d jobs=%d, this batch is task=%q params_sha=%s seed=%d jobs=%d",
			ErrMismatch, path, stored.Task, short(stored.ParamsSHA), stored.Seed, stored.Jobs,
			h.Task, short(h.ParamsSHA), h.Seed, h.Jobs)
	}
	// Dedupe keeping the first occurrence, and rewrite the file to exactly
	// the valid recovered prefix: truncation discards the torn tail so the
	// appends that follow start on a clean line boundary.
	seen := make(map[int]bool, len(entries))
	kept := entries[:0]
	keptLines := lines[:0]
	for i, e := range entries {
		if seen[e.Job] {
			continue
		}
		seen[e.Job] = true
		kept = append(kept, e)
		keptLines = append(keptLines, lines[i])
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopening %s: %w", path, err)
	}
	j := newJournal(f, fsyncEvery)
	stored.V = Version
	headLine, err := json.Marshal(stored)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: encoding header: %w", err)
	}
	if err := j.writeLine(headLine); err != nil {
		f.Close()
		return nil, nil, err
	}
	for _, line := range keptLines {
		if err := j.writeLine(line); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, kept, nil
}

// short abbreviates a hex digest for error messages.
func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
