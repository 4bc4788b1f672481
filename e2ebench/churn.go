package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ca "github.com/multiradio/chanalloc"
)

// liveRate is allocd's default rate function (its -rate flag default).
const liveRate = "tdma:54"

// The traced stage times account for live.apply_us when they sum to it
// within stageTolerance of it or stageFloorUS, whichever is larger. The
// floor covers Apply's fixed per-event work outside the stages (building
// the update frame, session statistics, metrics), which dominates the gap
// when an event costs only a few microseconds.
const (
	stageTolerance = 0.15
	stageFloorUS   = 3.0
)

// stagesAccountFor reports whether stage times summing to stagesUS account
// for an apply time of applyUS.
func stagesAccountFor(applyUS, stagesUS float64) bool {
	return math.Abs(applyUS-stagesUS) <= max(stageTolerance*applyUS, stageFloorUS)
}

var byeFrame = []byte("{\"op\":\"bye\"}\n")

// serverConfig is allocd's default serving configuration — the default
// rate, verification on — with the given verify workers (< 1 means
// NumCPU, allocd's default).
func serverConfig(channels, workers int) (ca.LiveConfig, error) {
	rate, err := ca.ParseRate(liveRate)
	if err != nil {
		return ca.LiveConfig{}, err
	}
	return ca.LiveConfig{Channels: channels, Rate: rate, RateName: liveRate, Workers: workers, Verify: true}, nil
}

// frames is a request trace encoded once, before any timing, into one
// buffer: the timed loop only slices it.
type frames struct {
	buf []byte
	off []int // frame i is buf[off[i]:off[i+1]], newline included
}

func encodeFrames(reqs []ca.LiveRequest) (*frames, error) {
	f := &frames{off: make([]int, 1, len(reqs)+1)}
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		f.buf = append(append(f.buf, b...), '\n')
		f.off = append(f.off, len(f.buf))
	}
	return f, nil
}

func (f *frames) n() int              { return len(f.off) - 1 }
func (f *frames) at(i int) []byte     { return f.buf[f.off[i]:f.off[i+1]] }
func (f *frames) prefix(n int) []byte { return f.buf[:f.off[n]] }

// churnTrace generates the workload's seeded trace: the initial joins
// followed by `events` churn events.
func churnTrace(w *workload, seed uint64, events int) ([]ca.LiveRequest, *frames, error) {
	reqs, err := ca.GenerateChurnTrace(ca.DefaultChurnSpec(w.channels, w.users, w.users+events, seed))
	if err != nil {
		return nil, nil, err
	}
	fr, err := encodeFrames(reqs)
	return reqs, fr, err
}

// session is one client connection to an in-process live server over
// loopback TCP.
type session struct {
	ln    net.Listener
	conn  net.Conn
	rd    *bufio.Reader
	done  chan error
	hello []byte
	sum   hash.Hash // every frame read: hello, then one per request
}

// openSession starts a server, dials it, reads the hello and sends the
// first `joins` frames closed-loop. This is a churn workload's set-up.
func openSession(cfg ca.LiveConfig, fr *frames, joins int) (*session, error) {
	srv, err := ca.NewLiveServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &session{ln: ln, done: make(chan error, 1), sum: sha256.New()}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			s.done <- err
			return
		}
		err = ca.ServeLive(srv, c, c)
		c.Close()
		s.done <- err
	}()
	if s.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-s.done
		return nil, err
	}
	s.rd = bufio.NewReaderSize(s.conn, 64<<10)
	hello, err := s.rd.ReadSlice('\n')
	if err == nil {
		s.hello = append([]byte(nil), hello...)
		s.sum.Write(hello)
		for i := 0; i < joins && err == nil; i++ {
			err = s.roundTrip(fr.at(i))
		}
	}
	if err != nil {
		s.abort()
		return nil, err
	}
	return s, nil
}

// roundTrip writes one request frame and reads its response frame.
func (s *session) roundTrip(frame []byte) error {
	if _, err := s.conn.Write(frame); err != nil {
		return err
	}
	line, err := s.rd.ReadSlice('\n')
	if err != nil {
		return err
	}
	s.sum.Write(line)
	return nil
}

// drive replays frames [from, to) closed-loop, appending each event's
// latency — from writing its request to reading its response — to lat. It
// stops early once an event ends past the deadline (zero: no deadline).
func (s *session) drive(fr *frames, from, to int, deadline time.Time, lat []time.Duration) ([]time.Duration, error) {
	for i := from; i < to; i++ {
		t0 := time.Now()
		if _, err := s.conn.Write(fr.at(i)); err != nil {
			return lat, err
		}
		line, err := s.rd.ReadSlice('\n')
		t1 := time.Now()
		if err != nil {
			return lat, err
		}
		lat = append(lat, t1.Sub(t0))
		s.sum.Write(line)
		if !deadline.IsZero() && t1.After(deadline) {
			break
		}
	}
	return lat, nil
}

// close ends the conversation politely and waits for the server to return.
func (s *session) close() error {
	_, err := s.conn.Write(byeFrame)
	if err == nil {
		var line []byte
		line, err = s.rd.ReadSlice('\n')
		if err == nil && !bytes.Contains(line, []byte(`"bye"`)) {
			err = fmt.Errorf("want a bye frame, got %q", line)
		}
	}
	s.conn.Close()
	serveErr := <-s.done
	s.ln.Close()
	return errors.Join(err, serveErr)
}

// abort tears a session down without the bye exchange.
func (s *session) abort() {
	s.conn.Close()
	<-s.done
	s.ln.Close()
}

func churnEnv(w *workload, o options, ops int) []kv {
	workers := w.verifyWorkers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return append(baseEnv(w, o),
		kv{"rate", liveRate},
		kv{"verify", "on"},
		kv{"verify_workers", fmt.Sprint(workers)},
		kv{"cluster_window", "n/a (no cluster)"},
		kv{"journal_dir", "n/a (no journal)"},
		kv{"clients", "1 connection, closed loop"},
		kv{"ops", fmt.Sprint(ops)},
	)
}

// runChurn is the untraced churn run: set up several times, replay the
// trace closed-loop for the run's seconds, then check the transcript.
func runChurn(w *workload, o options) (*report, error) {
	cfg, err := serverConfig(w.channels, w.verifyWorkers)
	if err != nil {
		return nil, err
	}
	_, fr, err := churnTrace(w, o.seed, w.maxEventRate*o.seconds)
	if err != nil {
		return nil, err
	}

	var setups setupTimes
	var s *session
	for r := 0; r < w.setupReps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing set-up session: %w", err)
			}
		}
		if err := setups.measure(func() (err error) {
			s, err = openSession(cfg, fr, w.users)
			return err
		}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	lat := make([]time.Duration, 0, fr.n()-w.users)
	pr := startProbe()
	start := time.Now()
	lat, err = s.drive(fr, w.users, fr.n(), start.Add(time.Duration(o.seconds)*time.Second), lat)
	elapsed := time.Since(start)
	seen := pr.finish()
	if err != nil {
		s.abort()
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	liveSum := s.sum.Sum(nil)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	events := len(lat)

	rep := &report{env: append(churnEnv(w, o, events), kv{"steal_pct", fmt.Sprintf("%.1f", seen.stealPct)}), attempted: events}
	// Correctness gate, outside the timed phase: an offline ServeLive
	// replay of the same pre-encoded frames must produce the transcript
	// read over TCP byte for byte, and that transcript must be clean.
	chk, err := replayOffline(w, fr.prefix(w.users+events))
	if err != nil {
		return nil, err
	}
	chk.verdict(rep, liveSum, w.users+events)
	rep.failed = chk.timedErrors

	us := micros(lat)
	note := ""
	if elapsed < time.Duration(o.seconds)*time.Second {
		note = fmt.Sprintf("trace exhausted after %.2fs", elapsed.Seconds())
	}
	rep.add("throughput_per_s", float64(events)/elapsed.Seconds(), "1/s", events, "events per second, closed loop "+note)
	rep.add("latency_p50_us", percentile(us, 50), "us", events, "per event, client write to update read")
	rep.add("latency_p90_us", percentile(us, steadyTailPct), "us", events, tailNote(events, steadyTailPct, "event"))
	rep.add(tailName(w.tailPct), percentile(us, w.tailPct), "us", events, tailNote(events, w.tailPct, "event"))
	setups.add(rep, "server start, dial, hello, initial joins")
	rep.add("peak_rss_mb", seen.peakMB, "MB", seen.rssSamples, "peak resident set of the whole process (server, client, trace) during the timed phase")
	rep.add("error_rate", float64(chk.timedErrors)/float64(events), "ratio", events, "error frames / requests sent")
	rep.add("cpu_us_per_op", float64(seen.cpu)/float64(time.Microsecond)/float64(events), "us", events, "process CPU time (user+system) per event")
	return rep, nil
}

// tailName names the row of a tail percentile.
func tailName(p float64) string { return "latency_" + pctName(p) + "_us" }

// tailNote says whether the run held enough samples beyond a percentile.
func tailNote(n int, p float64, unit string) string {
	if !tailSupported(n, p) {
		return fmt.Sprintf("%s per %s; only %d samples beyond it, want %d", pctName(p), unit, beyond(n, p), minTail)
	}
	return fmt.Sprintf("%s per %s, %d samples beyond it", pctName(p), unit, beyond(n, p))
}

// replayOffline serves the frames through ServeLive in process and checks
// the transcript it writes.
func replayOffline(w *workload, in []byte) (*transcriptCheck, error) {
	cfg, err := serverConfig(w.channels, w.verifyWorkers)
	if err != nil {
		return nil, err
	}
	srv, err := ca.NewLiveServer(cfg)
	if err != nil {
		return nil, err
	}
	chk := newTranscriptCheck(w.users)
	if err := ca.ServeLive(srv, bytes.NewReader(in), chk); err != nil {
		return nil, fmt.Errorf("offline replay: %w", err)
	}
	return chk, nil
}

// frameView decodes the response frames the checker needs.
type frameView struct {
	Type    string         `json:"type"`
	Version int            `json:"version"`
	Error   string         `json:"error"`
	Update  *ca.LiveUpdate `json:"update"`
}

// transcriptCheck hashes a live transcript and checks every frame: a hello
// of the known version first, then only update frames, each converged and
// verified, with contiguous event numbers.
type transcriptCheck struct {
	sum         hash.Hash
	partial     []byte
	joins       int
	frames      int
	lastEvent   int
	errors      int // error frames anywhere
	timedErrors int // error frames after the set-up joins
	problems    []string
}

func newTranscriptCheck(joins int) *transcriptCheck {
	return &transcriptCheck{sum: sha256.New(), joins: joins}
}

func (c *transcriptCheck) Write(p []byte) (int, error) {
	c.sum.Write(p)
	c.partial = append(c.partial, p...)
	rest := c.partial
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		c.frame(rest[:i])
		rest = rest[i+1:]
	}
	c.partial = append(c.partial[:0], rest...)
	return len(p), nil
}

func (c *transcriptCheck) problem(format string, args ...any) {
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *transcriptCheck) frame(line []byte) {
	c.frames++
	var f frameView
	if err := json.Unmarshal(line, &f); err != nil {
		c.problem("frame %d: %v", c.frames, err)
		return
	}
	if c.frames == 1 {
		if f.Type != "hello" || f.Version != ca.LiveProtocolVersion {
			c.problem("first frame is %q version %d, want hello version %d", f.Type, f.Version, ca.LiveProtocolVersion)
		}
		return
	}
	switch {
	case f.Type == "error":
		c.errors++
		if c.frames-1 > c.joins {
			c.timedErrors++
		}
		c.problem("frame %d is an error frame: %s", c.frames, f.Error)
	case f.Type != "update" || f.Update == nil:
		c.problem("frame %d has type %q, want update", c.frames, f.Type)
	default:
		u := f.Update
		if u.Event != c.lastEvent+1 {
			c.problem("frame %d: event %d follows event %d", c.frames, u.Event, c.lastEvent)
		}
		c.lastEvent = u.Event
		if !u.Converged || !u.Verified {
			c.problem("event %d: converged=%v verified=%v", u.Event, u.Converged, u.Verified)
		}
	}
}

// verdict records the check's findings, plus a transcript-hash or frame
// count mismatch against what the client read, in the report.
func (c *transcriptCheck) verdict(rep *report, liveSum []byte, requests int) {
	if len(c.partial) > 0 {
		rep.fail("transcript ends in a partial frame")
	}
	if c.frames != requests+1 {
		rep.fail("transcript holds %d frames, want hello + %d", c.frames, requests)
	}
	if got := c.sum.Sum(nil); !bytes.Equal(got, liveSum) {
		rep.fail("transcript sha256 %x read over TCP, %x from the offline replay", liveSum, got)
	}
	for _, p := range c.problems {
		rep.fail("%s", p)
	}
}

// stageOut is what one mirrored apply produced, for cross-checks against
// the server's own update frame.
type stageOut struct {
	users, rounds, moves, dpCalls, warmSkipped, verifyDPs int
	converged, verified                                   bool
	welfare                                               float64
}

// stager replays a live server's Apply from the benchmark's own code, one
// public call per layer, so a traced run can time each layer without any
// tracing inside the program. It follows Server.Apply call for call:
// mutate, re-equilibrate, welfare, verify.
type stager struct {
	lg      *ca.LiveGame
	workers int
}

func newStager(cfg ca.LiveConfig) (*stager, error) {
	lg, err := ca.NewLiveGame(cfg.Channels, cfg.Rate)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &stager{lg: lg, workers: workers}, nil
}

// apply runs one request; with a tracer, every layer call gets a span
// under one root span for the request.
func (s *stager) apply(req ca.LiveRequest, idx int, tr *tracer) (stageOut, error) {
	var out stageOut
	root := tr.begin(spanEvent, -1, idx)
	defer tr.end(root)

	sp := tr.begin(spanMutate, root, idx)
	var err error
	switch req.Op {
	case "join":
		_, err = s.lg.Join(req.Budget)
	case "leave":
		err = s.lg.Leave(ca.UserID(req.ID))
	case "budget":
		err = s.lg.SetBudget(ca.UserID(req.ID), req.Budget)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	tr.end(sp)
	if err != nil {
		return out, err
	}

	sp = tr.begin(spanRequilibrate, root, idx)
	ws := ca.BorrowWorkspace()
	res, err := ca.Requilibrate(s.lg, ca.WithDynamicsWorkspace(ws))
	ca.ReturnWorkspace(ws)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out = stageOut{users: s.lg.Users(), rounds: res.Rounds, moves: res.Moves, dpCalls: res.DPCalls,
		warmSkipped: res.WarmSkipped, converged: res.Converged, verified: true}

	if a := s.lg.Alloc(); a != nil {
		sp = tr.begin(spanWelfare, root, idx)
		out.welfare = s.lg.Frozen().Welfare(a)
		tr.end(sp)

		sp = tr.begin(spanVerify, root, idx)
		out.verified, out.verifyDPs = verifyNE(s.lg.Frozen(), a, s.workers)
		tr.end(sp)
	}
	return out, nil
}

// verifyNE re-proves a is a Nash equilibrium of g exactly as the live
// server does — per-user best-response DPs sharded over `workers`
// goroutines — and counts the DPs it ran.
func verifyNE(g *ca.HeteroGame, a *ca.Alloc, workers int) (bool, int) {
	n := g.Users()
	if workers > n {
		workers = n
	}
	var refuted atomic.Bool
	var dps atomic.Int64
	check := func(lo, hi int) {
		ws := ca.BorrowWorkspace()
		defer ca.ReturnWorkspace(ws)
		for i := lo; i < hi && !refuted.Load(); i++ {
			current := g.Utility(a, i)
			_, best, err := g.BestResponseInto(ws, a, i)
			dps.Add(1)
			if err != nil || best > current+ca.DefaultEps {
				refuted.Store(true)
			}
		}
	}
	if workers <= 1 {
		check(0, n)
		return !refuted.Load(), int(dps.Load())
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(lo, hi)
		}()
	}
	wg.Wait()
	return !refuted.Load(), int(dps.Load())
}

// traceChurn is the traced churn run. It does a fixed amount of work — the
// initial joins plus tracedUnits events — first over TCP untraced (event
// latency and allocation per event), then in process with spans around
// each layer call: the live server's own Apply (decode, apply, encode), a
// stage-by-stage mirror of Apply, and the same mirror without spans
// (tracing overhead).
func traceChurn(w *workload, o options) (*report, error) {
	m := w.tracedUnits(o.seconds)
	cfg, err := serverConfig(w.channels, w.verifyWorkers)
	if err != nil {
		return nil, err
	}
	reqs, fr, err := churnTrace(w, o.seed, m)
	if err != nil {
		return nil, err
	}
	rep := &report{env: churnEnv(w, o, m), attempted: m}

	// Phase 1: transport, untraced.
	s, err := openSession(cfg, fr, w.users)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lat, err := s.drive(fr, w.users, fr.n(), time.Time{}, make([]time.Duration, 0, m))
	runtime.ReadMemStats(&ms1)
	if err != nil {
		s.abort()
		return nil, fmt.Errorf("transport phase: %w", err)
	}
	liveSum := s.sum.Sum(nil)
	hello := s.hello
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}

	// Phase 2: the same requests in process, traced, in three passes that
	// each own the only live game in the process, as the server did over
	// TCP: interleaving them would make each evict the others' state from
	// the caches and inflate every layer's time.
	tr := newTracer(9 * m)
	recFor := func(i int) *tracer {
		if i < w.users {
			return nil // the initial joins are set-up, not traced
		}
		return tr
	}

	// Pass 1: the server's own path — decode the frame, Apply, encode the
	// update — whose frames must reproduce the transcript read over TCP.
	srv, err := ca.NewLiveServer(cfg)
	if err != nil {
		return nil, err
	}
	chk := newTranscriptCheck(w.users)
	chk.Write(hello)
	var out bytes.Buffer // the last encoded update frame
	enc := json.NewEncoder(&out)
	updates := make([]*ca.LiveUpdate, fr.n())
	var frameBytes int
	for i := 0; i < fr.n(); i++ {
		rec := recFor(i)
		line := fr.at(i)
		sp := rec.begin(spanDecode, -1, i)
		var req ca.LiveRequest
		err := json.Unmarshal(line[:len(line)-1], &req)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("decoding frame %d: %w", i, err)
		}
		sp = rec.begin(spanApply, -1, i)
		resp := srv.Apply(req)
		rec.end(sp)
		out.Reset()
		sp = rec.begin(spanEncode, -1, i)
		err = enc.Encode(resp)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		chk.Write(out.Bytes())
		updates[i] = resp.Update
		if rec != nil {
			frameBytes += out.Len()
		}
	}
	chk.verdict(rep, liveSum, fr.n())

	// Pass 2: the stage mirror, traced, checked against the server.
	traced, err := newStager(cfg)
	if err != nil {
		return nil, err
	}
	staged := make([]stageOut, fr.n())
	var verifyDPs, dpCalls, warm, rounds int
	for i, req := range reqs {
		got, err := traced.apply(req, i, recFor(i))
		if err != nil {
			return nil, fmt.Errorf("staged apply of request %d: %w", i, err)
		}
		staged[i] = got
		if u := updates[i]; u == nil || u.Users != got.users || u.Rounds != got.rounds || u.Moves != got.moves ||
			u.DPCalls != got.dpCalls || u.WarmSkipped != got.warmSkipped || u.Converged != got.converged ||
			u.Verified != got.verified || u.Welfare != got.welfare {
			rep.fail("request %d: stage mirror %+v disagrees with the server's update %+v", i, got, u)
		}
		if i >= w.users {
			verifyDPs += got.verifyDPs
			dpCalls += got.dpCalls
			warm += got.warmSkipped
			rounds += got.rounds
		}
	}

	// Pass 3: the same mirror untraced, the baseline of the tracing
	// overhead.
	plain, err := newStager(cfg)
	if err != nil {
		return nil, err
	}
	plainWall := make([]time.Duration, 0, m)
	for i, req := range reqs {
		t0 := time.Now()
		ref, err := plain.apply(req, i, nil)
		if i >= w.users {
			plainWall = append(plainWall, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("staged apply of request %d: %w", i, err)
		}
		if ref != staged[i] {
			rep.fail("request %d: traced and untraced stage mirrors disagree: %+v vs %+v", i, staged[i], ref)
		}
	}

	rep.failed = chk.timedErrors
	if err := tr.write(spanPath(o, w)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	total, self, _ := tr.selfTimes()
	per := func(name string) float64 { return float64(self[name]) / float64(time.Microsecond) / float64(m) }
	fm := float64(m)
	apply := per("live.apply")
	stages := per("hetero.mutate") + per("dynamics.requilibrate") + per("hetero.welfare") + per("live.verify")
	gap := apply - stages
	within := "within"
	if !stagesAccountFor(apply, stages) {
		within = "NOT within"
	}
	rep.add("live.apply_us", apply, "us", m, "mean Server.Apply per event, no transport")
	rep.add("live.decode_us", per("live.decode"), "us", m, "mean request frame decode")
	rep.add("live.encode_us", per("live.encode"), "us", m, "mean update frame encode")
	rep.add("live.frame_bytes_out", float64(frameBytes)/fm, "bytes", m, "mean update frame size")
	rep.add("live.verify_us", per("live.verify"), "us", m, "mean NE verification (fan-out over verify workers)")
	rep.add("live.verify_dps_per_event", float64(verifyDPs)/fm, "count", m, "best-response DPs verification runs")
	rep.add("live.other_us", gap, "us", m, fmt.Sprintf("live.apply_us minus its stages (%.2f us); stage sum %s max(%.0f%%, %.0f us) of live.apply_us",
		stages, within, 100*stageTolerance, stageFloorUS))
	rep.add("transport.rtt_us", mean(micros(lat))-apply, "us", m, "mean event latency over TCP minus live.apply_us")
	rep.add("hetero.mutate_us", per("hetero.mutate"), "us", m, "mean join/leave/budget mutation")
	rep.add("hetero.welfare_us", per("hetero.welfare"), "us", m, "mean welfare evaluation")
	rep.add("dynamics.requilibrate_us", per("dynamics.requilibrate"), "us", m, "mean warm-started re-equilibration")
	rep.add("dynamics.dp_calls_per_event", float64(dpCalls)/fm, "count", m, "re-equilibration best-response DPs")
	rep.add("dynamics.warm_skipped_per_event", float64(warm)/fm, "count", m, "quiet verdicts carried over")
	rep.add("dynamics.rounds_per_event", float64(rounds)/fm, "count", m, "re-equilibration rounds")
	coreDP := 0.0
	if verifyDPs > 0 {
		coreDP = float64(total["live.verify"]) / float64(time.Microsecond) / float64(verifyDPs)
	}
	rep.add("core.dp_us", coreDP, "us", verifyDPs, "verification time / verification DPs (wall, across workers)")
	rep.notExercised("engine.", "dist.", "journal.")
	gcMetrics(rep, &ms0, &ms1, m, "event")
	rep.add("trace.overhead_us", pairedOverhead(tr.durations(spanEvent), plainWall), "us", m,
		"median per-event difference: traced stage mirror minus the same mirror untraced")
	return rep, nil
}

// gcMetrics reports the Go runtime's allocation and collection work over
// an untraced phase of ops operations.
func gcMetrics(rep *report, ms0, ms1 *runtime.MemStats, ops int, unit string) {
	f := float64(ops)
	rep.add("gc.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/f, "bytes", ops, "whole process, per "+unit)
	rep.add("gc.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/f, "count", ops, "whole process, per "+unit)
	rep.add("gc.cycles_per_1k_ops", 1000*float64(ms1.NumGC-ms0.NumGC)/f, "count", ops, "GC cycles per 1000 "+unit+"s")
}

// spanPath is where a traced run writes its spans.
func spanPath(o options, w *workload) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.csv", o.outDir, w.name, o.seed)
}
