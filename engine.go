package chanalloc

import (
	"crypto/tls"
	"time"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/engine"
)

// Parallel experiment engine, re-exported. The engine is a deterministic
// worker pool: jobs fan out over runtime.NumCPU() workers (or an explicit
// pool size), every job draws randomness from a private PRNG stream derived
// from the root seed and the job index alone, and results fan in ordered by
// job — so a batch is byte-identical no matter how many workers ran it.
type (
	// EngineStats reports how a batch executed (pool size, wall time,
	// per-job timings).
	EngineStats = engine.Stats
	// EngineOption configures ParallelMap and the batch runners.
	EngineOption = engine.Option
	// RNG is the explicit-seed SplitMix64 generator handed to engine jobs.
	RNG = des.RNG
)

// EngineWorkers fixes the worker-pool size; n < 1 (and the default) means
// runtime.NumCPU().
func EngineWorkers(n int) EngineOption { return engine.Workers(n) }

// EngineSeed sets the root seed that every per-job PRNG stream derives
// from.
func EngineSeed(seed uint64) EngineOption { return engine.Seed(seed) }

// EngineJobSeed derives the PRNG stream seed of one job from a root seed;
// it depends only on (root, job), never on scheduling.
func EngineJobSeed(root uint64, job int) uint64 { return engine.JobSeed(root, job) }

// ParallelMap runs jobs 0..n-1 over the engine's worker pool and returns
// their results in job order.
func ParallelMap[T any](n int, fn func(job int, rng *RNG) (T, error), opts ...EngineOption) ([]T, EngineStats, error) {
	return engine.Map(n, fn, opts...)
}

// Pluggable engine backends, re-exported. A Backend executes batches of a
// named, registered task (closures cannot cross process boundaries) under
// the engine's determinism contract: per-job PRNG streams seeded by
// (root seed, job index) alone and index-ordered fan-in, so every backend
// produces byte-identical results — the in-process pool and the remote
// backends alike. The two remote backends share one dispatcher — a window
// of outstanding jobs per worker, requeue of a dead worker's jobs, an
// optional checkpoint journal — and differ only in where their workers
// come from: process spawns them on this machine, and cluster, the one
// cross-machine backend, accepts workers that dial in. See the
// internal/engine package documentation.
type (
	// EngineBackend executes task batches under the determinism contract.
	EngineBackend = engine.Backend
	// InProcessBackend is the default backend: the in-process worker pool.
	InProcessBackend = engine.InProcess
	// ProcessBackend shards batches over re-exec'd worker subprocesses
	// that join a private unix socket for the batch.
	ProcessBackend = engine.Process
	// ClusterBackend is the membership backend: workers dial IN and
	// register (joins are accepted mid-batch), heartbeats track liveness,
	// and silent workers are evicted with their in-flight jobs requeued.
	ClusterBackend = engine.Cluster
	// ClusterOption configures the cluster backend's dispatcher, which
	// both remote backends share: NewProcessBackend and NewClusterBackend
	// take the same set.
	ClusterOption = engine.RemoteOption
	// JoinOption configures EngineJoinAndServe.
	JoinOption = engine.JoinOption
)

// EngineProtocolVersion is the version of the coordinator<->worker wire
// protocol, exchanged in the register handshake that opens every joining
// worker's connection so skewed binaries fail loudly at connect time.
const EngineProtocolVersion = engine.ProtocolVersion

// NewInProcessBackend returns the default in-process backend.
func NewInProcessBackend() *InProcessBackend { return engine.NewInProcess() }

// NewProcessBackend returns a multi-process backend sharding batches over
// `shards` worker subprocesses (shards < 1 means one per CPU). Workers are
// the current binary re-exec'd in engine-worker mode; call
// RunEngineWorkerIfRequested first thing in main to enable that mode. A
// dead shard's in-flight jobs are requeued for the survivors.
func NewProcessBackend(shards int, opts ...ClusterOption) *ProcessBackend {
	return engine.NewProcess(shards, opts...)
}

// TLS plumbing, re-exported: the engine's network path — cluster
// coordinators and joining workers — can run its NDJSON protocol over TLS
// with frame bytes unchanged. Listeners load a cert/key
// pair (EngineServerTLSConfig ← -tls-cert/-tls-key), dialers verify against
// a CA bundle (EngineClientTLSConfig ← -tls-ca, or -tls-skip-verify in
// tests).

// EngineServerTLSConfig loads a listener's TLS certificate/key pair.
func EngineServerTLSConfig(certFile, keyFile string) (*tls.Config, error) {
	return engine.ServerTLSConfig(certFile, keyFile)
}

// EngineClientTLSConfig builds a dialer's TLS configuration: caFile (when
// set) replaces the system roots; skipVerify disables verification (tests).
func EngineClientTLSConfig(caFile string, skipVerify bool) (*tls.Config, error) {
	return engine.ClientTLSConfig(caFile, skipVerify)
}

// GenerateSelfSignedCert mints an ECDSA P-256 self-signed certificate for
// the given hosts, as PEM cert and key blocks (cmd/gencert, tests, CI
// smokes — bring real certificates for production).
func GenerateSelfSignedCert(hosts []string, notBefore, notAfter time.Time) (certPEM, keyPEM []byte, err error) {
	return engine.GenerateSelfSignedCert(hosts, notBefore, notAfter)
}

// NewClusterBackend listens for worker joins on addr ("host:port", ":port",
// "unix:/path" or a bare path) and returns the membership backend. Workers
// join with EngineJoinAndServe or `engineworker -join addr`; joins are
// accepted any time, including mid-batch. Close the backend when the whole
// sweep is done — the membership outlives individual batches.
func NewClusterBackend(addr string, opts ...ClusterOption) (*ClusterBackend, error) {
	return engine.NewCluster(addr, opts...)
}

// ClusterWindow sets the per-worker window of outstanding jobs; window 1 is
// lock-step dispatch, the default of the process backend, and the cluster
// backend defaults to 8. The window never affects results, only
// wall clock.
func ClusterWindow(n int) ClusterOption { return engine.WithWindow(n) }

// ClusterAuthToken sets the shared secret a cluster coordinator requires
// from every joining worker. A mismatch fails loudly, like version skew.
func ClusterAuthToken(token string) ClusterOption { return engine.WithAuthToken(token) }

// ClusterJoinWait bounds the batch's accumulated time with no worker
// serving it while more may still arrive (default 30s); only a completed
// job resets the budget, so a crash-looping worker cannot keep a batch
// waiting forever.
func ClusterJoinWait(d time.Duration) ClusterOption { return engine.WithJoinWait(d) }

// ClusterTLS layers TLS under the job protocol: a cluster coordinator
// answers joins with cfg as a server (workers dial with JoinTLS /
// -tls-ca).
func ClusterTLS(cfg *tls.Config) ClusterOption { return engine.WithTLS(cfg) }

// ClusterJournal checkpoints batch progress to an append-only NDJSON file:
// the batch's identity plus one entry per completed job with its exact
// result bytes (see internal/journal). Journal write failures are logged,
// never fatal.
func ClusterJournal(path string) ClusterOption { return engine.WithJournal(path) }

// ClusterResume recovers an existing journal before dispatch: checkpointed
// jobs are filled in from the file (EngineStats.Resumed) and only the
// remainder runs. The journal's identity — task, params hash, seed, job
// count — must match the batch exactly or the run fails loudly.
func ClusterResume(on bool) ClusterOption { return engine.WithResume(on) }

// ClusterJournalFsync sets the journal fsync cadence: sync after every n
// entries (default 1).
func ClusterJournalFsync(n int) ClusterOption { return engine.WithJournalFsync(n) }

// EngineJoinAndServe turns the process into a cluster worker: dial the
// coordinator at addr, register this process's task registry, serve
// pipelined jobs with heartbeats, and rejoin whenever the coordinator goes
// away. Permanent rejections (auth token, protocol version) return
// immediately; transient failures retry with backoff.
func EngineJoinAndServe(addr string, opts ...JoinOption) error {
	return engine.JoinAndServe(addr, opts...)
}

// JoinAuthToken sets the shared secret presented at registration.
func JoinAuthToken(token string) JoinOption { return engine.WithJoinAuthToken(token) }

// JoinStop makes EngineJoinAndServe return when the channel closes.
func JoinStop(stop <-chan struct{}) JoinOption { return engine.WithJoinStop(stop) }

// JoinTLS layers a TLS client session under the join protocol; the
// coordinator must listen with the matching ClusterTLS / -tls-cert.
func JoinTLS(cfg *tls.Config) JoinOption { return engine.WithJoinTLS(cfg) }

// JoinBackoffSeed seeds the join loop's backoff jitter (default: a
// process-unique seed so restarted fleets spread their redials).
func JoinBackoffSeed(seed uint64) JoinOption { return engine.WithJoinBackoffSeed(seed) }

// EngineTaskNames lists the tasks registered in this process, sorted.
func EngineTaskNames() []string { return engine.TaskNames() }

// EngineTaskFunc runs one job of a registered task against the batch's
// params, decoded into P once per batch (once per worker connection on the
// remote backends) and shared read-only by every job; see engine.TaskFunc.
type EngineTaskFunc[P any] = engine.TaskFunc[P]

// RegisterEngineTask adds a named task to the process-global registry so
// backends (including worker subprocesses) can run it. The engine decodes
// each batch's params into P; json.RawMessage keeps the raw blob.
func RegisterEngineTask[P any](name string, fn EngineTaskFunc[P]) error {
	return engine.RegisterTask(name, fn)
}

// RunEngineTask runs a registered task over any backend with typed
// parameters and per-job results.
func RunEngineTask[T any](b EngineBackend, task string, params any, n int, opts ...EngineOption) ([]T, EngineStats, error) {
	return engine.RunTask[T](b, task, params, n, opts...)
}

// RunEngineWorkerIfRequested turns the process into an engine worker when
// the ProcessBackend's environment marker is set: it joins the coordinator
// the marker names, serves task jobs until the coordinator closes the
// connection, and exits. It returns immediately in a normal run. Call it
// at the top of main, after task registrations.
func RunEngineWorkerIfRequested() { engine.RunWorkerIfRequested() }
