// Command sweep runs the repository's experiment suite (EXPERIMENTS.md)
// and prints the tables recorded there. Each experiment has an id matching
// the EXPERIMENTS.md index:
//
//	E1  lemmas    — Figure 1 walkthrough: lemma violations + profitable moves
//	E2  theorem1  — Theorem 1 checker vs exact oracle, exhaustive tiny games
//	E3  pareto    — Theorem 2: NE Pareto-optimality on tiny games
//	E4  alg1      — Algorithm 1 always lands on a NE; welfare ratio
//	E5  fairshare — CSMA/CA simulator: equal shares + model agreement
//	E6  dynamics  — convergence speed of best-response dynamics
//	E7  dist      — distributed protocol equals centralised Algorithm 1
//	E8  boundary  — rate-decay boundary of Theorem 1 sufficiency
//	E9  poa       — price of anarchy of NE across rate decay
//	E10 literal   — the paper-literal Algorithm 1 rule failure rate
//	E11 hetero    — heterogeneous radio budgets: NE properties, welfare
//	                optimum and price of anarchy beyond uniform k
//	E12 distbatch — E7 at scale: a (game × policy-mix) grid of token rings
//	                batched over the engine (dist.RunBatch)
//
// The suite executes on the parallel experiment engine through a pluggable
// backend: experiments run as jobs of a registered engine task, fanned out
// over the in-process pool (default) or one of three remote backends that
// share one dispatcher and differ only in where their workers come from:
// worker subprocesses (-backend process -shards N; each shard is this
// binary re-exec'd in engine-worker mode, speaking newline-delimited JSON
// over stdio), socket workers on other machines (-backend socket -addrs
// host:port,... — the same frames, plus a version handshake per
// connection; see EXPERIMENTS.md for the frame grammar), or a worker
// cluster (-backend cluster -listen-workers :9100 — the connection
// direction reverses: workers dial in with `engineworker -join` or `sweep
// -join` and register, may join or leave mid-batch, and heartbeat for
// liveness). Every remote backend streams a -window of outstanding jobs
// to each worker — lock-step (1) on process and socket unless -window is
// given, 8 on cluster — and requeues a dead worker's jobs to the
// survivors.
// Socket workers are sweep binaries started with -listen, so the
// experiment task is registered on both ends; note that experiments write
// CSVs on the machine that runs them, so -out expects a shared filesystem
// when peers are remote. -auth-token arms a shared-secret check in every
// handshake; -tls-cert/-tls-key (listening paths) and -tls-ca (dialing
// paths) run the same wire protocol over TLS with frame bytes unchanged.
// A remote sweep can checkpoint progress with -journal path and, after a
// coordinator crash, rerun with -resume to skip completed jobs — the
// resumed output is byte-identical to an uninterrupted run (see
// EXPERIMENTS.md, "Fault tolerance"). The experiments' internal batch
// paths (seed sweeps, NE enumeration, dynamics replicates, batched
// protocol rings) each fan out over their own -workers-sized in-process
// pool — nested fan-out, so peak concurrency can exceed -workers. All
// randomness derives from -seed through per-job PRNG streams, so output —
// stdout and CSVs — is byte-identical for any -workers value AND any
// backend/shard/peer/window combination.
//
//	sweep -exp all                        # run everything (few minutes)
//	sweep -exp boundary                   # one experiment
//	sweep -exp all -out data/             # also write CSVs
//	sweep -exp all -seed 7 -workers 4     # reproducible, 4 workers
//	sweep -exp all -backend process -shards 4  # shard over 4 subprocesses
//	sweep -listen :9000                   # serve as a socket worker, then:
//	sweep -exp all -backend socket -addrs host1:9000,host2:9000
//	sweep -join host:9100                 # serve as a cluster worker, and:
//	sweep -exp all -backend cluster -listen-workers :9100 -window 8
package main

import (
	"bytes"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/multiradio/chanalloc"
)

// experiment names in execution (and output) order.
var experimentOrder = []string{
	"lemmas", "theorem1", "pareto", "alg1", "fairshare",
	"dynamics", "dist", "boundary", "poa", "literal", "hetero",
	"distbatch",
}

var experiments = map[string]func(io.Writer, expEnv) error{
	"lemmas":    expLemmas,
	"theorem1":  expTheorem1,
	"pareto":    expPareto,
	"alg1":      expAlg1,
	"fairshare": expFairShare,
	"dynamics":  expDynamics,
	"dist":      expDist,
	"boundary":  expBoundary,
	"poa":       expPoA,
	"literal":   expLiteral,
	"hetero":    expHetero,
	"distbatch": expDistBatch,
}

// experimentIndex returns an experiment's fixed position in
// experimentOrder. Per-experiment seeds derive from this index, so the
// stream an experiment sees does not depend on which subset runs — or on
// which backend shard runs it.
func experimentIndex(name string) int {
	for i, n := range experimentOrder {
		if n == name {
			return i
		}
	}
	return -1
}

// expTask is the engine task name the suite runs under; registering the
// experiments as a task is what lets the process backend ship them to
// worker subprocesses.
const expTask = "sweep/experiment"

// expParams is the batch-wide parameter blob of the experiment task.
type expParams struct {
	// Exps lists the experiments of the batch; job i runs Exps[i].
	Exps []string `json:"exps"`
	// CSVDir is where experiments write CSVs ("" skips them). Worker
	// subprocesses share the coordinator's filesystem, so CSVs land in the
	// same place on every backend.
	CSVDir string `json:"csv_dir,omitempty"`
	// Seed is the root -seed flag; each experiment derives its private
	// root from it and its fixed index.
	Seed uint64 `json:"seed"`
	// Workers sizes the experiments' internal in-process pools.
	Workers int `json:"workers"`
}

// expOutput is one experiment's result. A failing experiment reports its
// error here rather than as a job error so the batch still completes and
// the suite can print everything that preceded the failure, exactly like
// the historical in-process path.
type expOutput struct {
	Output string `json:"output"`
	Err    string `json:"err,omitempty"`
}

func init() {
	if err := chanalloc.RegisterEngineTask(expTask,
		func(p expParams, job int, _ *chanalloc.RNG) (any, error) {
			if job < 0 || job >= len(p.Exps) {
				return nil, fmt.Errorf("job %d outside %d experiments", job, len(p.Exps))
			}
			name := p.Exps[job]
			fn, ok := experiments[name]
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", name)
			}
			env := expEnv{
				csvDir:  p.CSVDir,
				seed:    chanalloc.EngineJobSeed(p.Seed, experimentIndex(name)),
				workers: p.Workers,
			}
			var out expOutput
			var buf bytes.Buffer
			if err := fn(&buf, env); err != nil {
				out.Err = fmt.Sprintf("experiment %s: %v", name, err)
			}
			out.Output = buf.String()
			return out, nil
		}); err != nil {
		panic(err)
	}
}

func main() {
	// In engine-worker mode (spawned by -backend process) this serves task
	// jobs over stdio and exits; in a normal run it is a no-op.
	chanalloc.RunEngineWorkerIfRequested()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// writeTraceFile dumps the global trace ring as NDJSON to path.
func writeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chanalloc.WriteObsTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitAddrs parses a comma-separated -addrs list: entries are trimmed of
// surrounding whitespace, and an empty entry — a doubled, leading or
// trailing comma — is a loud configuration error instead of a silently
// skipped (or worse, dialed) "" address.
func splitAddrs(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	list := make([]string, 0, len(parts))
	for i, addr := range parts {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("-addrs entry %d of %d is empty (stray comma in %q?)",
				i+1, len(parts), s)
		}
		list = append(list, addr)
	}
	return list, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run (see package doc) or all")
	csvDir := fs.String("out", "", "directory for CSV output (omit to skip)")
	seed := fs.Uint64("seed", 0, "root seed for every randomised experiment")
	workers := fs.Int("workers", 0, "worker-pool size (<= 0 means NumCPU)")
	backendName := fs.String("backend", "inprocess", "engine backend: inprocess, process, socket or cluster")
	shards := fs.Int("shards", 0, "worker subprocesses for -backend process (<= 0 means NumCPU)")
	addrs := fs.String("addrs", "", "comma-separated worker addresses for -backend socket (host:port or unix:/path)")
	listen := fs.String("listen", "", "serve as a socket worker on this address instead of running experiments")
	join := fs.String("join", "", "serve as a cluster worker joined to this coordinator address instead of running experiments")
	listenWorkers := fs.String("listen-workers", "", "accept cluster-worker joins on this address (-backend cluster)")
	window := fs.Int("window", 0, "outstanding jobs per worker on the remote backends, 1 = lock-step (unset: 1 on process and socket, 8 on cluster)")
	joinWait := fs.Duration("join-wait", 30*time.Second, "how long a remote batch waits while no worker is serving it (a cluster nobody joins, a socket peer between redials)")
	authToken := fs.String("auth-token", "", "shared secret checked in every worker handshake")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address (empty disables)")
	traceOut := fs.String("trace-out", "", "write the structured trace ring as NDJSON to this file when the run ends")
	tlsCert := fs.String("tls-cert", "", "serve TLS on listening paths (-listen, -listen-workers) with this PEM certificate (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key for -tls-cert")
	tlsCA := fs.String("tls-ca", "", "dial TLS on outgoing paths (-backend socket, -join) verifying against this PEM CA bundle")
	tlsSkipVerify := fs.Bool("tls-skip-verify", false, "dial TLS without verifying the peer certificate (tests only)")
	journalPath := fs.String("journal", "", "checkpoint batch progress to this NDJSON file (-backend process, socket or cluster)")
	resume := fs.Bool("resume", false, "recover completed jobs from -journal before dispatching (skipped jobs are never re-run)")
	journalFsync := fs.Int("journal-fsync", 1, "fsync the journal every N completed jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	windowSet := false
	fs.Visit(func(f *flag.Flag) { windowSet = windowSet || f.Name == "window" })

	// TLS configs are built eagerly so a bad flag combination or unreadable
	// file fails before any listener binds or worker dials.
	var serverTLS, clientTLS *tls.Config
	if *tlsCert != "" || *tlsKey != "" {
		cfg, err := chanalloc.EngineServerTLSConfig(*tlsCert, *tlsKey)
		if err != nil {
			return err
		}
		serverTLS = cfg
	}
	if *tlsCA != "" || *tlsSkipVerify {
		cfg, err := chanalloc.EngineClientTLSConfig(*tlsCA, *tlsSkipVerify)
		if err != nil {
			return err
		}
		clientTLS = cfg
	}
	if *journalPath != "" && *backendName == "inprocess" {
		return fmt.Errorf("-journal only applies to the remote backends process, socket and cluster (got -backend %s)", *backendName)
	}
	if *resume && *journalPath == "" {
		return fmt.Errorf("-resume needs -journal path (there is nothing to resume from)")
	}
	if *journalFsync < 1 {
		return fmt.Errorf("-journal-fsync must be >= 1, got %d", *journalFsync)
	}
	if *metricsAddr != "" {
		ms, err := chanalloc.ServeObs(*metricsAddr)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintln(os.Stderr, "sweep: metrics on", ms.Addr)
	}
	if *traceOut != "" {
		// Deferred so a failing suite still dumps its trace — the failure
		// is exactly when the dispatch/requeue/eviction record matters.
		defer func() {
			if err := writeTraceFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: writing trace:", err)
			}
		}()
	}
	if *listen != "" {
		fmt.Fprintf(out, "sweep: protocol v%d, serving %v on %s\n",
			chanalloc.EngineProtocolVersion, chanalloc.EngineTaskNames(), *listen)
		serveOpts := []chanalloc.ServeOption{chanalloc.ServeAuthToken(*authToken)}
		if serverTLS != nil {
			serveOpts = append(serveOpts, chanalloc.ServeTLS(serverTLS))
		}
		return chanalloc.EngineListenAndServe(*listen, serveOpts...)
	}
	if *join != "" {
		fmt.Fprintf(out, "sweep: protocol v%d, serving %v, joining %s\n",
			chanalloc.EngineProtocolVersion, chanalloc.EngineTaskNames(), *join)
		joinOpts := []chanalloc.JoinOption{chanalloc.JoinAuthToken(*authToken)}
		if clientTLS != nil {
			joinOpts = append(joinOpts, chanalloc.JoinTLS(clientTLS))
		}
		return chanalloc.EngineJoinAndServe(*join, joinOpts...)
	}
	var backend chanalloc.EngineBackend
	switch *backendName {
	case "inprocess":
		backend = chanalloc.NewInProcessBackend()
	case "process", "socket", "cluster":
		// The remote backends share one dispatcher and so one option set.
		// Loud validation: the option constructors ignore out-of-range
		// values, which would silently run the defaults instead.
		if windowSet && *window < 1 {
			return fmt.Errorf("-window must be >= 1 (1 means lock-step dispatch), got %d", *window)
		}
		if *joinWait <= 0 {
			return fmt.Errorf("-join-wait must be positive, got %v", *joinWait)
		}
		opts := []chanalloc.ClusterOption{
			chanalloc.ClusterJoinWait(*joinWait),
			chanalloc.ClusterAuthToken(*authToken),
		}
		if windowSet {
			// Unset, each backend keeps its own default window.
			opts = append(opts, chanalloc.ClusterWindow(*window))
		}
		if *journalPath != "" {
			opts = append(opts,
				chanalloc.ClusterJournal(*journalPath),
				chanalloc.ClusterResume(*resume),
				chanalloc.ClusterJournalFsync(*journalFsync))
		}
		switch *backendName {
		case "process":
			backend = chanalloc.NewProcessBackend(*shards, opts...)
		case "socket":
			list, err := splitAddrs(*addrs)
			if err != nil {
				return err
			}
			if len(list) == 0 {
				return fmt.Errorf("-backend socket needs -addrs host:port[,host:port...]")
			}
			// Socket coordinators dial out: the client side of TLS.
			if clientTLS != nil {
				opts = append(opts, chanalloc.ClusterTLS(clientTLS))
			}
			backend = chanalloc.NewSocketBackendWith(list, opts...)
		case "cluster":
			if *listenWorkers == "" {
				return fmt.Errorf("-backend cluster needs -listen-workers addr (workers join it with `engineworker -join addr`)")
			}
			// Cluster coordinators accept joins: the server side of TLS.
			if serverTLS != nil {
				opts = append(opts, chanalloc.ClusterTLS(serverTLS))
			}
			c, err := chanalloc.NewClusterBackend(*listenWorkers, opts...)
			if err != nil {
				return err
			}
			defer c.Close()
			backend = c
		}
	default:
		return fmt.Errorf("unknown backend %q (want inprocess, process, socket or cluster)", *backendName)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("creating output dir: %w", err)
		}
	}
	names := experimentOrder
	if *exp != "all" {
		if _, ok := experiments[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		names = []string{*exp}
	}

	// Experiments are jobs of one engine-task batch over the selected
	// backend: each writes into its own buffer, the buffers print in suite
	// order. A failing experiment does not discard the others' completed
	// output — everything before it in the suite still prints, then its
	// error surfaces with the name attached.
	results, _, err := chanalloc.RunEngineTask[expOutput](backend, expTask, expParams{
		Exps:    names,
		CSVDir:  *csvDir,
		Seed:    *seed,
		Workers: *workers,
	}, len(names), chanalloc.EngineWorkers(*workers))
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != "" {
			return errors.New(res.Err)
		}
		if _, err := io.WriteString(out, res.Output); err != nil {
			return err
		}
	}
	return nil
}
