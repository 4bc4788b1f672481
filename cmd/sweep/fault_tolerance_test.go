package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc"
)

// TestClusterBackendFailsLoudlyWithNoWorkers: a cluster sweep whose join-wait
// expires with zero workers fails with an error that says so, instead of
// hanging or silently returning empty output.
func TestClusterBackendFailsLoudlyWithNoWorkers(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-exp", "theorem1", "-seed", "7", "-out", t.TempDir(),
		"-backend", "cluster",
		"-listen-workers", "unix:" + t.TempDir() + "/coord.sock",
		"-join-wait", "200ms",
	}, &b)
	if err == nil {
		t.Fatal("workerless cluster sweep returned nil, want a loud failure")
	}
	if !strings.Contains(err.Error(), "no worker ever joined") {
		t.Fatalf("err = %v, want the no-worker-ever-joined diagnosis", err)
	}
}

// TestJournalFlagValidation: the journal flags reject incoherent
// combinations before any backend is built.
func TestJournalFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"journal without cluster",
			[]string{"-journal", "j.ndjson"},
			"-journal only applies to the remote backends"},
		{"resume without journal",
			[]string{"-backend", "cluster", "-listen-workers", "127.0.0.1:0", "-resume"},
			"-resume needs -journal"},
		{"fsync below one",
			[]string{"-backend", "cluster", "-listen-workers", "127.0.0.1:0",
				"-journal", "j.ndjson", "-journal-fsync", "0"},
			"-journal-fsync must be >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := run(append([]string{"-exp", "theorem1", "-out", t.TempDir()}, tc.args...), &b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// startSweepWorker runs one in-process engine worker joining coord; close
// the returned stop channel and receive on done to tear it down. The
// worker's join loop retries until the coordinator exists, so it can start
// before the sweep does.
func startSweepWorker(t *testing.T, coord string, stop chan struct{}) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := chanalloc.EngineJoinAndServe(coord, chanalloc.JoinStop(stop)); err != nil {
			t.Errorf("worker join: %v", err)
		}
	}()
	return done
}

// journalSweep runs one journal-enabled cluster sweep into a fixed output
// dir (the journal's batch identity covers the params, and the params
// include -out, so resumed runs must reuse the same dir).
func journalSweep(t *testing.T, dir, coord, journal string, seed uint64, resume bool) (string, error) {
	t.Helper()
	args := []string{
		"-exp", "theorem1",
		"-seed", fmt.Sprint(seed),
		"-workers", "2",
		"-out", dir,
		"-backend", "cluster",
		"-listen-workers", coord,
		"-journal", journal,
	}
	if resume {
		args = append(args, "-resume")
	}
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

// TestClusterSweepJournalResume is the CLI surface of the resume contract:
// a journaled cluster sweep leaves a checkpoint file, and a -resume rerun
// recovers every completed job — here all of them, so it finishes without
// any worker joined at all — and prints byte-identical output.
func TestClusterSweepJournalResume(t *testing.T) {
	const seed = 7
	baseOut, baseCSVs := sweepRun(t, "theorem1", seed, 2)

	dir := t.TempDir()
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	coord := "unix:" + t.TempDir() + "/coord.sock"

	stop := make(chan struct{})
	done := startSweepWorker(t, coord, stop)
	firstOut, err := journalSweep(t, dir, coord, journal, seed, false)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("journaled sweep: %v", err)
	}
	if firstOut != baseOut {
		t.Fatalf("journaled cluster sweep changed stdout:\n--- inprocess\n%s\n--- cluster\n%s",
			baseOut, firstOut)
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) == 0 {
		t.Fatalf("journal not written: %v (%d bytes)", err, len(data))
	}

	// The resume: every job is already journaled, so the rerun completes
	// from the checkpoint alone — no worker is started on purpose.
	resumedOut, err := journalSweep(t, dir, "unix:"+t.TempDir()+"/coord2.sock", journal, seed, true)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if resumedOut != baseOut {
		t.Fatalf("resumed sweep changed stdout:\n--- baseline\n%s\n--- resumed\n%s",
			baseOut, resumedOut)
	}
	for name, want := range baseCSVs {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("CSV %s missing after resume: %v", name, err)
		}
		if string(got) != want {
			t.Fatalf("CSV %s diverged after resume", name)
		}
	}
}

// TestClusterSweepResumeRefusesForeignJournal: resuming with a different
// -seed is a different batch; the sweep refuses the journal instead of
// silently mixing results.
func TestClusterSweepResumeRefusesForeignJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	coord := "unix:" + t.TempDir() + "/coord.sock"

	stop := make(chan struct{})
	done := startSweepWorker(t, coord, stop)
	_, err := journalSweep(t, dir, coord, journal, 7, false)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("journaled sweep: %v", err)
	}

	stop2 := make(chan struct{})
	done2 := startSweepWorker(t, coord+"2", stop2)
	defer func() { close(stop2); <-done2 }()
	_, err = journalSweep(t, dir, coord+"2", journal, 8, true)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want the batch-identity mismatch refusal", err)
	}
}

// TestProcessSweepJournalResume: the journal belongs to the dispatcher
// every remote backend shares, so a process-backend sweep checkpoints and
// resumes exactly like a cluster sweep — byte-identical output, with the
// rerun completing from the checkpoint alone.
func TestProcessSweepJournalResume(t *testing.T) {
	const seed = 7
	baseOut, baseCSVs := sweepRun(t, "theorem1", seed, 2)
	dir := t.TempDir()
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	for _, resume := range []bool{false, true} {
		args := []string{"-exp", "theorem1", "-seed", fmt.Sprint(seed), "-workers", "2", "-out", dir,
			"-backend", "process", "-shards", "2", "-window", "1", "-journal", journal}
		if resume {
			args = append(args, "-resume")
		}
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("resume=%v: %v", resume, err)
		}
		if b.String() != baseOut {
			t.Fatalf("resume=%v changed stdout:\n--- inprocess\n%s\n--- process\n%s", resume, baseOut, b.String())
		}
		if data, err := os.ReadFile(journal); err != nil || len(data) == 0 {
			t.Fatalf("resume=%v: journal not written: %v (%d bytes)", resume, err, len(data))
		}
	}
	for name, want := range baseCSVs {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != want {
			t.Fatalf("CSV %s diverged after resume (err %v)", name, err)
		}
	}
}

// TestWindowValidatedOnEveryRemoteBackend: -window configures the shared
// dispatcher, so every remote backend rejects an out-of-range value loudly.
func TestWindowValidatedOnEveryRemoteBackend(t *testing.T) {
	for _, backend := range [][]string{
		{"-backend", "process"},
		{"-backend", "cluster", "-listen-workers", "127.0.0.1:0"},
	} {
		var b strings.Builder
		err := run(append([]string{"-exp", "lemmas", "-window", "0"}, backend...), &b)
		if err == nil || !strings.Contains(err.Error(), "-window must be >= 1") {
			t.Fatalf("%v: err = %v, want the -window rejection", backend, err)
		}
	}
}
