package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
)

// TestMain lets the test binary double as the worker binary: when the
// Process backend re-execs it with WorkerEnv set, it serves jobs instead of
// running tests. Task registrations live in init functions, so they are in
// place for both roles.
func TestMain(m *testing.M) {
	RunWorkerIfRequested()
	os.Exit(m.Run())
}

// confParams parameterises the conformance tasks.
type confParams struct {
	Mul   uint64 `json:"mul"`
	Label string `json:"label"`
}

// confResult is what the conformance tasks produce per job.
type confResult struct {
	Job   int    `json:"job"`
	Acc   uint64 `json:"acc"`
	Label string `json:"label"`
}

// paramsDecodes counts countParams decodes in this process.
var paramsDecodes atomic.Int64

// countParams parameterises conformance/count and counts its own decodes:
// every UnmarshalJSON is one decode of a batch's params blob, and the value
// remembers which decode (1-based, per process) produced it.
type countParams struct {
	Mul    uint64 `json:"mul"`
	decode int64
}

func (p *countParams) UnmarshalJSON(b []byte) error {
	var raw struct {
		Mul uint64 `json:"mul"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	p.Mul, p.decode = raw.Mul, paramsDecodes.Add(1)
	return nil
}

// countResult reports, beside the job's draw, which decode of the params
// the job ran against and in which process.
type countResult struct {
	Job    int    `json:"job"`
	Acc    uint64 `json:"acc"`
	Decode int64  `json:"decode"`
	PID    int    `json:"pid"`
}

func init() {
	MustRegisterTask("conformance/count", func(p countParams, job int, rng *des.RNG) (any, error) {
		return countResult{Job: job, Acc: rng.Uint64() * p.Mul, Decode: p.decode, PID: os.Getpid()}, nil
	})
	// conformance/draw consumes a job-dependent amount of the PRNG stream —
	// the digest only matches across backends if seeds derive from
	// (root, job) alone.
	MustRegisterTask("conformance/draw", func(p confParams, job int, rng *des.RNG) (any, error) {
		var acc uint64
		for i := 0; i <= job%7; i++ {
			acc = acc*p.Mul + rng.Uint64()
		}
		return confResult{Job: job, Acc: acc, Label: p.Label}, nil
	})
	// conformance/huge answers job 1 with a value, or with params
	// {"error":true} an error text, too large for one result frame; the
	// batch must surface job 1's error on every backend, worded
	// identically, without losing a worker connection.
	MustRegisterTask("conformance/huge", func(p struct{ Error bool }, job int, _ *des.RNG) (any, error) {
		switch {
		case job != 1:
			return confResult{Job: job}, nil
		case p.Error:
			return nil, errors.New(strings.Repeat("e", (maxFrameBytes-frameOverhead)/6+1))
		default:
			// Quoted, the string is one byte past the room a value has.
			return strings.Repeat("v", maxFrameBytes-frameOverhead-1), nil
		}
	})
	// conformance/fail errors on every job with index ≡ 3 (mod 5); the
	// batch must surface job 3's error on every backend, worded identically.
	MustRegisterTask("conformance/fail", func(_ json.RawMessage, job int, rng *des.RNG) (any, error) {
		if job%5 == 3 {
			return nil, fmt.Errorf("job %d boom", job)
		}
		return confResult{Job: job}, nil
	})
}

// conformanceBackends enumerates every backend implementation with a few
// pool/shard/member shapes each. Process shapes stay small (each entry
// spawns that many subprocesses); cluster shapes run the real membership
// path — register handshake, heartbeats, pipelined windowed dispatch —
// with JoinAndServe workers, the test process serving its own registered
// tasks, dialing a coordinator over loopback TCP, a unix socket and TLS.
func conformanceBackends(t *testing.T) []conformanceBackend {
	t.Helper()
	const tcp = "127.0.0.1:0"
	tlsSrv, tlsCli := testTLSPair(t)
	return []conformanceBackend{
		{"inprocess/workers=1", NewInProcess(), []Option{Workers(1)}, 0},
		{"inprocess/workers=4", NewInProcess(), []Option{Workers(4)}, 0},
		{"process/shards=1", NewProcess(1), nil, 1},
		{"process/shards=3", NewProcess(3), nil, 3},
		// Process defaults to lock-step (window 1); the shared dispatcher's
		// pipelined window must not show in its results either.
		{"process/shards=2/window=4", NewProcess(2, WithWindow(4)), nil, 2},
		// Every pinned window size: lock-step (1), moderate (4) and deeper
		// than most batches (32). Neither the window nor the worker count
		// may show in the results.
		{"cluster/window=1", startCluster(t, tcp, 1, nil, WithWindow(1)), nil, 1},
		{"cluster/window=4/workers=2", startCluster(t, tcp, 2, nil, WithWindow(4)), nil, 2},
		{"cluster/window=32", startCluster(t, tcp, 1, nil, WithWindow(32)), nil, 1},
		{"cluster/unix", startCluster(t, "unix:"+t.TempDir()+"/coord.sock", 1, nil), nil, 1},
		// TLS under the framing: the conformance digest is the proof the
		// frame bytes never changed.
		{"cluster/tls", startCluster(t, tcp, 2, []JoinOption{WithJoinTLS(tlsCli)},
			WithTLS(tlsSrv), WithWindow(4)), nil, 2},
	}
}

// conformanceBackend is one backend shape of the conformance suite.
type conformanceBackend struct {
	desc    string
	backend Backend
	opts    []Option
	// conns is how many worker connections (shards, members) a
	// healthy batch can use; 0 for the in-process pool.
	conns int
}

// startCluster runs a cluster coordinator on addr with `workers` in-test
// JoinAndServe workers, each joining with the join options, dialed in and
// registered; the backend is torn down with the test.
func startCluster(t *testing.T, addr string, workers int, join []JoinOption, opts ...RemoteOption) *Cluster {
	t.Helper()
	c, err := NewCluster(addr,
		append([]RemoteOption{WithJoinWait(10 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := JoinAndServe(c.Addr(), append([]JoinOption{
				WithJoinStop(stop), WithJoinRetryWait(10 * time.Millisecond),
			}, join...)...)
			if err != nil {
				t.Errorf("worker join: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		c.Close()
		wg.Wait()
	})
	// Batches tolerate joining workers mid-batch, but waiting here keeps
	// the conformance shapes honest about their advertised worker counts.
	deadline := time.Now().Add(5 * time.Second)
	for c.reg.Len() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.reg.Len() < workers {
		t.Fatalf("only %d of %d workers joined", c.reg.Len(), workers)
	}
	return c
}

// TestBackendConformanceResults is the Backend contract: for a fixed root
// seed, every backend produces byte-identical JSON results.
func TestBackendConformanceResults(t *testing.T) {
	const n = 23
	params, err := json.Marshal(confParams{Mul: 31, Label: "conf"})
	if err != nil {
		t.Fatal(err)
	}
	var base []json.RawMessage
	var baseDesc string
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			got, stats, err := bc.backend.RunTask("conformance/draw", params, n,
				append(bc.opts, Seed(42))...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n || stats.Jobs != n {
				t.Fatalf("got %d results, stats %+v, want %d jobs", len(got), stats, n)
			}
			if base == nil {
				base, baseDesc = got, bc.desc
				return
			}
			for job := range got {
				if !bytes.Equal(base[job], got[job]) {
					t.Fatalf("job %d differs from %s:\n%s\nvs\n%s",
						job, baseDesc, base[job], got[job])
				}
			}
		})
	}
}

// TestBackendConformanceError pins the failure contract: every backend
// surfaces the lowest-indexed failing job's error, worded identically, with
// nil results.
func TestBackendConformanceError(t *testing.T) {
	const want = "engine: job 3: job 3 boom"
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			got, _, err := bc.backend.RunTask("conformance/fail", []byte("{}"), 17,
				append(bc.opts, Seed(42))...)
			if err == nil {
				t.Fatal("expected an error")
			}
			if err.Error() != want {
				t.Fatalf("error %q, want %q", err.Error(), want)
			}
			if got != nil {
				t.Fatalf("results must be nil on failure, got %v", got)
			}
		})
	}
}

// TestBackendConformanceUnknownTask: resolving an unregistered task fails
// the same way on every backend, before any work is dispatched.
func TestBackendConformanceUnknownTask(t *testing.T) {
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			if _, _, err := bc.backend.RunTask("conformance/nope", nil, 3, bc.opts...); err == nil {
				t.Fatal("unknown task should error")
			}
		})
	}
}

// TestBackendConformanceEmptyBatch: zero jobs succeed with empty results on
// every backend.
func TestBackendConformanceEmptyBatch(t *testing.T) {
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			got, stats, err := bc.backend.RunTask("conformance/draw", []byte(`{"mul":1}`), 0, bc.opts...)
			if err != nil || len(got) != 0 || got == nil || stats.Workers != 0 {
				t.Fatalf("empty batch: got=%v stats=%+v err=%v", got, stats, err)
			}
		})
	}
}

// TestBackendConformanceDecodeOnce pins the params contract: a batch's
// params blob is decoded once per worker connection (once per batch on the
// in-process pool), and only a connection's first job frame carries it.
// conformance/count reports which decode each job ran against: in-process
// decodes are counted directly; each process shard is a fresh process, so
// its jobs must all report its first and only decode.
func TestBackendConformanceDecodeOnce(t *testing.T) {
	const n = 23
	params := []byte(`{"mul":7}`)
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			decodes0, frames0 := paramsDecodes.Load(), mParamsFrames.Value()
			raw, _, err := bc.backend.RunTask("conformance/count", params, n, append(bc.opts, Seed(5))...)
			if err != nil {
				t.Fatal(err)
			}
			decodes := paramsDecodes.Load() - decodes0
			frames := int64(mParamsFrames.Value() - frames0)
			seen := map[int64]bool{}
			pids := map[int]bool{}
			for job, enc := range raw {
				var r countResult
				if err := json.Unmarshal(enc, &r); err != nil {
					t.Fatal(err)
				}
				if r.Job != job {
					t.Fatalf("job %d reports identity %d", job, r.Job)
				}
				seen[r.Decode] = true
				pids[r.PID] = true
			}
			_, isProcess := bc.backend.(*Process)
			switch {
			case bc.conns == 0:
				if decodes != 1 || frames != 0 || len(seen) != 1 {
					t.Fatalf("in-process batch: %d decodes, %d params frames, jobs saw %d decodes; want 1, 0, 1",
						decodes, frames, len(seen))
				}
			case isProcess:
				if decodes != 0 || len(seen) != 1 || !seen[1] {
					t.Fatalf("process batch: %d coordinator decodes, shard decodes seen %v; want 0 and {1}", decodes, seen)
				}
				if frames != int64(len(pids)) || len(pids) > bc.conns {
					t.Fatalf("process batch: %d params frames for %d shards that ran jobs (of %d)", frames, len(pids), bc.conns)
				}
			default:
				if decodes != frames || int64(len(seen)) != decodes || decodes < 1 || decodes > int64(bc.conns) {
					t.Fatalf("%d decodes, %d params frames, jobs saw %d decodes, %d connections; want decodes == frames == seen in [1, %d]",
						decodes, frames, len(seen), bc.conns, bc.conns)
				}
			}
		})
	}
}

// TestBackendConformanceParamsErrors: params that do not decode into the
// task's type fail every job with one engine-worded error, and params that
// are not JSON at all fail the batch before dispatch — identically on every
// backend.
func TestBackendConformanceParamsErrors(t *testing.T) {
	const decodeErr = `engine: job 0: decoding params of task "conformance/draw": ` +
		`json: cannot unmarshal string into Go struct field confParams.mul of type uint64`
	const invalidErr = `engine: params of task "conformance/draw" are not valid JSON`
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			for _, tc := range []struct{ params, want string }{
				{`{"mul":"x"}`, decodeErr},
				{`{"mul":`, invalidErr},
			} {
				got, _, err := bc.backend.RunTask("conformance/draw", []byte(tc.params), 9,
					append(bc.opts, Seed(1))...)
				if err == nil || err.Error() != tc.want || got != nil {
					t.Fatalf("params %s: results %v, error %v; want nil results and %q", tc.params, got, err, tc.want)
				}
			}
		})
	}
}

// TestBackendConformanceFrameBound pins the frame bound at the batch
// boundary, identically on every backend: params that would not fit one
// job frame fail the batch before dispatch, whether by their length or
// once a json.Encoder escapes them, and a job whose value would not fit
// one result frame fails with that as its error, while a job whose error
// text would not fit fails with the text cut to fit. No worker connection
// is lost over either.
func TestBackendConformanceFrameBound(t *testing.T) {
	const task = "conformance/draw"
	room := maxFrameBytes - frameOverhead - 6*len(task)
	long := make([]byte, room+1)
	escaped := []byte(`"` + strings.Repeat("<", room/6+1) + `"`)
	paramsErr := func(params []byte) string {
		return fmt.Sprintf("engine: params of task %q (%d bytes) do not fit the %d-byte frame bound",
			task, len(params), maxFrameBytes)
	}
	valueErr := fmt.Sprintf("engine: job 1: result of %d bytes does not fit the %d-byte frame bound",
		maxFrameBytes-frameOverhead+1, maxFrameBytes)
	textErr := "engine: job 1: " + strings.Repeat("e", (maxFrameBytes-frameOverhead)/6-len(cutMark)) + cutMark
	for _, bc := range conformanceBackends(t) {
		t.Run(bc.desc, func(t *testing.T) {
			for _, params := range [][]byte{long, escaped} {
				got, _, err := bc.backend.RunTask(task, params, 3, bc.opts...)
				if err == nil || err.Error() != paramsErr(params) || got != nil {
					t.Fatalf("params of %d bytes: results %v, error %.200v", len(params), got, err)
				}
			}
			for _, tc := range []struct{ params, want string }{
				{`{}`, valueErr},
				{`{"error":true}`, textErr},
			} {
				got, stats, err := bc.backend.RunTask("conformance/huge", []byte(tc.params), 3,
					append(bc.opts, Seed(1))...)
				if err == nil || err.Error() != tc.want || got != nil {
					t.Fatalf("params %s: results %v, error %.200v; want %.200q", tc.params, got, err, tc.want)
				}
				if stats.Requeues != 0 {
					t.Fatalf("params %s: %d requeues; a worker connection was lost", tc.params, stats.Requeues)
				}
			}
		})
	}
}

// TestRunTaskTyped exercises the typed helper end to end on both backends,
// including that process results decode into the same structs the
// in-process pool yields.
func TestRunTaskTyped(t *testing.T) {
	const n = 9
	want, _, err := RunTask[confResult](NewInProcess(), "conformance/draw",
		confParams{Mul: 31, Label: "typed"}, n, Seed(7), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunTask[confResult](NewProcess(2), "conformance/draw",
		confParams{Mul: 31, Label: "typed"}, n, Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if want[job] != got[job] {
			t.Fatalf("job %d: inprocess %+v, process %+v", job, want[job], got[job])
		}
		if want[job].Job != job || want[job].Label != "typed" {
			t.Fatalf("job %d carries wrong identity: %+v", job, want[job])
		}
	}
	if _, _, err := RunTask[confResult](nil, "conformance/draw", nil, 1); err == nil {
		t.Fatal("nil backend should error")
	}
	if _, _, err := RunTask[confResult](NewInProcess(), "conformance/draw",
		make(chan int), 1); err == nil {
		t.Fatal("unencodable params should error")
	}
}

// TestProcessBackendMatchesMap pins the tentpole guarantee at the Map
// surface: engine.Map over the in-process pool and the multi-process
// backend running the same task produce byte-identical results for a fixed
// root seed.
func TestProcessBackendMatchesMap(t *testing.T) {
	const n, root = 23, 42
	params := confParams{Mul: 31, Label: "conf"}
	// The task body, run directly through Map (the closure path).
	fromMap, _, err := Map(n, func(job int, rng *des.RNG) (confResult, error) {
		var acc uint64
		for i := 0; i <= job%7; i++ {
			acc = acc*params.Mul + rng.Uint64()
		}
		return confResult{Job: job, Acc: acc, Label: params.Label}, nil
	}, Seed(root), Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	fromProcess, _, err := RunTask[confResult](NewProcess(3), "conformance/draw", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	for job := range fromMap {
		if fromMap[job] != fromProcess[job] {
			t.Fatalf("job %d: Map %+v, process backend %+v", job, fromMap[job], fromProcess[job])
		}
	}
}
