// Command engineworker is a long-lived worker for the engine's
// cross-machine backend, the cluster: it dials in to a coordinator and
// registers — so it can live behind NAT, start before the coordinator
// exists, or join a sweep already mid-batch — then serves a pipelined
// window of jobs of the library's registered engine tasks (EXPERIMENTS.md
// documents the protocol) with heartbeats, rejoining whenever the
// coordinator goes away.
//
//	sweep -backend cluster -listen-workers :9100   # the coordinator
//	engineworker -join coordinator-host:9100       # on each worker host
//
// -join is required. The worker serves the tasks registered in its binary
// (engineworker carries the library's registry — `engineworker -tasks`
// lists it, with dist/ring serving distributed-protocol grids). The
// register handshake checks protocol version and the optional -auth-token
// shared secret, so a mismatched worker is rejected loudly instead of
// misinterpreting frames; -tls-ca dials the coordinator over TLS.
// Task-registering programs can also be their own workers: `sweep -join
// host:9100` serves the experiment suite's task the same way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/multiradio/chanalloc"
)

func main() {
	// Stdio worker mode (spawned by a -backend process coordinator) still
	// works for this binary; in a normal run it is a no-op.
	chanalloc.RunEngineWorkerIfRequested()
	if err := run(os.Args[1:], os.Stdout, stopOnSignals()); err != nil {
		fmt.Fprintln(os.Stderr, "engineworker:", err)
		os.Exit(1)
	}
}

// stopOnSignals returns a channel that closes on SIGINT/SIGTERM — the
// graceful-shutdown trigger. A second signal while leaving restores the
// default disposition, so an impatient operator's repeat ^C still kills.
func stopOnSignals() <-chan struct{} {
	stop := make(chan struct{})
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "engineworker: shutdown signal — leaving the cluster (repeat to kill)")
		signal.Stop(ch)
		close(stop)
	}()
	return stop
}

// run is the testable entry: stop (may be nil) triggers graceful shutdown.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("engineworker", flag.ContinueOnError)
	join := fs.String("join", "",
		`dial in and register with the cluster coordinator at this address: "host:port", "unix:/path" or a bare socket path (required)`)
	authToken := fs.String("auth-token", "",
		"shared secret presented at registration; must match the coordinator's -auth-token")
	tasks := fs.Bool("tasks", false, "list the tasks this worker can serve, then exit")
	metrics := fs.String("metrics", "",
		"serve /metrics, /metrics.json, /trace and /debug/pprof on this address (empty disables)")
	tlsCA := fs.String("tls-ca", "", "dial TLS, verifying the coordinator against this PEM CA bundle")
	tlsSkipVerify := fs.Bool("tls-skip-verify", false, "dial TLS without verifying the coordinator certificate (tests only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics != "" {
		ms, err := chanalloc.ServeObs(*metrics)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintln(os.Stderr, "engineworker: metrics on", ms.Addr)
	}
	if *tasks {
		for _, name := range chanalloc.EngineTaskNames() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	if *join == "" {
		return errors.New("-join is required: workers dial in to a coordinator (engineworker -join host:port)")
	}
	joinOpts := []chanalloc.JoinOption{chanalloc.JoinAuthToken(*authToken)}
	if *tlsCA != "" || *tlsSkipVerify {
		cfg, err := chanalloc.EngineClientTLSConfig(*tlsCA, *tlsSkipVerify)
		if err != nil {
			return err
		}
		joinOpts = append(joinOpts, chanalloc.JoinTLS(cfg))
	}
	if stop != nil {
		// A signalled worker leaves its session (the coordinator requeues
		// whatever it held) and returns nil: exit 0.
		joinOpts = append(joinOpts, chanalloc.JoinStop(stop))
	}
	fmt.Fprintf(out, "engineworker: protocol v%d, serving %v, joining %s\n",
		chanalloc.EngineProtocolVersion, chanalloc.EngineTaskNames(), *join)
	return chanalloc.EngineJoinAndServe(*join, joinOpts...)
}
