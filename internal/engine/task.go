package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/multiradio/chanalloc/internal/des"
)

// TaskFunc runs one job of a named task. params is the batch-wide parameter
// value, decoded from the batch's JSON blob once per batch (once per worker
// connection on the remote backends) and handed to every job that runs
// there; job is the index within the batch and rng is the job's private
// PRNG stream seeded by JobSeed(root, job). The returned value must be
// JSON-serialisable: it crosses process boundaries under the remote
// backends.
//
// params is READ-ONLY: the same value is shared by every job of the batch,
// concurrently on the in-process pool, so a task that mutates it (or
// anything reachable from it — slices, maps, pointers) races with its
// sibling jobs. The -race runs of the backend-conformance suite enforce
// this for the repository's tasks.
//
// A TaskFunc must derive all of its randomness from rng and all of its
// inputs from (params, job) — that, and nothing else, is what makes a task
// batch produce byte-identical results on every backend. json.RawMessage is
// a valid P for tasks that want the undecoded blob.
type TaskFunc[P any] func(params P, job int, rng *des.RNG) (any, error)

// jobFunc is one task bound to one batch's decoded params.
type jobFunc func(job int, rng *des.RNG) (any, error)

// binder decodes a batch's params blob and binds its task to the value.
type binder func(params json.RawMessage) (jobFunc, error)

var (
	taskMu sync.RWMutex
	tasks  = map[string]binder{}
)

// RegisterTask adds a named task to the process-global task registry. Tasks
// are how work crosses the Backend interface: closures cannot be shipped to
// a worker subprocess, so a batch names a registered task and sends its
// parameters as JSON, which the engine decodes into P. The same task must
// be registered in the coordinator and in the worker binary (with re-exec'd
// workers they are the same program, so one registration site covers
// both). Names must be non-empty and unique; a '/'-separated prefix
// ("sweep/experiment") is conventional.
func RegisterTask[P any](name string, fn TaskFunc[P]) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("engine: empty task name")
	}
	if fn == nil {
		return fmt.Errorf("engine: task %q has no function", name)
	}
	bind := func(raw json.RawMessage) (jobFunc, error) {
		var p P
		if err := json.Unmarshal(paramsBlob(raw), &p); err != nil {
			return nil, fmt.Errorf("decoding params of task %q: %v", name, err)
		}
		return func(job int, rng *des.RNG) (any, error) { return fn(p, job, rng) }, nil
	}
	taskMu.Lock()
	defer taskMu.Unlock()
	if _, dup := tasks[name]; dup {
		return fmt.Errorf("engine: task %q already registered", name)
	}
	tasks[name] = bind
	return nil
}

// MustRegisterTask is RegisterTask for program-init registrations, where a
// failure is a programming error.
func MustRegisterTask[P any](name string, fn TaskFunc[P]) {
	if err := RegisterTask(name, fn); err != nil {
		panic(err)
	}
}

// TaskNames lists the registered tasks in sorted order (diagnostics and
// worker handshake checks).
func TaskNames() []string {
	taskMu.RLock()
	defer taskMu.RUnlock()
	out := make([]string, 0, len(tasks))
	for name := range tasks {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// taskByName resolves a registered task to its params binder.
func taskByName(name string) (binder, bool) {
	taskMu.RLock()
	defer taskMu.RUnlock()
	bind, ok := tasks[name]
	return bind, ok
}

// unknownTask is the error every backend reports for an unregistered task.
func unknownTask(name string) error {
	return fmt.Errorf("unknown task %q (registered: %v)", name, TaskNames())
}

// checkBatch is every backend's pre-dispatch check: the task must be
// registered and the params blob, if any, must be valid JSON. An invalid
// blob cannot be framed, so without the check it would surface as a
// transport failure on every remote connection instead of one loud error.
func checkBatch(task string, params json.RawMessage) error {
	if _, ok := taskByName(task); !ok {
		return fmt.Errorf("engine: %w", unknownTask(task))
	}
	if len(params) > 0 && !json.Valid(params) {
		return fmt.Errorf("engine: params of task %q are not valid JSON", task)
	}
	return nil
}

// paramsBlob is the params a batch actually ships and decodes: an empty
// blob travels as JSON null (P's zero value), because on the wire an
// absent params field means "reuse this connection's cached params".
func paramsBlob(params json.RawMessage) json.RawMessage {
	if len(params) == 0 {
		return json.RawMessage("null")
	}
	return params
}

// workerSession is one worker connection's params cache: the task and the
// job function bound to the params of the latest params-carrying job
// frame. A job frame with params replaces the cache; a frame without
// params reuses it. A decode failure is cached too, so every job of that
// batch on this connection fails with the same error.
type workerSession struct {
	task string
	run  jobFunc
	err  error
}

// execute runs one job frame and builds its result frame. Job failures —
// including an unknown task, an undecodable params blob or a continuation
// frame with nothing cached for its task — are replies, never transport
// failures.
func (s *workerSession) execute(m *wireMsg) *wireMsg {
	reply := &wireMsg{Type: wireResult, Job: m.Job}
	run, err := s.jobFor(m)
	if err == nil {
		var out any
		if out, err = run(m.Job, des.NewRNG(m.Seed)); err == nil {
			if reply.Value, err = json.Marshal(out); err != nil {
				err = fmt.Errorf("encoding result: %v", err)
			}
		}
	}
	if err != nil {
		reply.Error = err.Error()
	}
	return reply
}

// jobFor resolves the job function for one frame, decoding (and caching)
// the frame's params when it carries them.
func (s *workerSession) jobFor(m *wireMsg) (jobFunc, error) {
	bind, ok := taskByName(m.Task)
	if !ok {
		return nil, unknownTask(m.Task)
	}
	if len(m.Params) > 0 {
		s.task = m.Task
		s.run, s.err = bind(m.Params)
	} else if s.task != m.Task {
		return nil, fmt.Errorf("job %d of task %q carries no params and this connection has none cached for it", m.Job, m.Task)
	}
	return s.run, s.err
}
