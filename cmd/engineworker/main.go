// Command engineworker is a long-lived worker for the engine's
// cross-machine backends: it serves jobs of the library's registered engine
// tasks (EXPERIMENTS.md documents the protocol) in either connection
// direction. Both directions feed the same coordinator-side dispatcher, so
// the worker answers a pipelined window of jobs in order either way:
//
//   - listen mode (socket backend): the worker listens, coordinators dial
//     it and the connection opens with the wire protocol's version
//     handshake.
//
//     engineworker -listen :9000                 # on each worker host
//     sweep -backend socket -addrs host1:9000,host2:9000
//
//   - join mode (cluster backend): the worker dials IN to a coordinator
//     and registers — so it can live behind NAT, start before the
//     coordinator exists, or join a sweep already mid-batch — then serves
//     its jobs with heartbeats, rejoining whenever the coordinator goes
//     away.
//
//     sweep -backend cluster -listen-workers :9100   # the coordinator
//     engineworker -join coordinator-host:9100       # on each worker host
//
// The worker serves the tasks registered in its binary (engineworker
// carries the library's registry — `engineworker -tasks` lists it, with
// dist/ring serving distributed-protocol grids). Handshakes check protocol
// version, task registry and the optional -auth-token shared secret, so a
// mismatched worker rejects loudly instead of misinterpreting frames.
// Task-registering programs can also be their own workers: `sweep -listen
// :9000` serves the experiment suite's task the same way.
package main

import (
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
// graceful-shutdown trigger. A second signal while draining restores the
// default disposition, so an impatient operator's repeat ^C still kills.
func stopOnSignals() <-chan struct{} {
	stop := make(chan struct{})
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "engineworker: shutdown signal — draining (repeat to kill)")
		signal.Stop(ch)
		close(stop)
	}()
	return stop
}

// run is the testable entry: stop (may be nil) triggers graceful shutdown.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("engineworker", flag.ContinueOnError)
	listen := fs.String("listen", ":9000",
		`address to serve on: "host:port", ":port", "unix:/path" or a bare socket path`)
	join := fs.String("join", "",
		"dial in and register with a cluster coordinator at this address instead of listening")
	authToken := fs.String("auth-token", "",
		"shared secret checked during the handshake; must match the coordinator's -auth-token")
	tasks := fs.Bool("tasks", false, "list the tasks this worker can serve, then exit")
	metrics := fs.String("metrics", "",
		"serve /metrics, /metrics.json, /trace and /debug/pprof on this address (empty disables)")
	tlsCert := fs.String("tls-cert", "", "serve TLS in listen mode with this PEM certificate (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key for -tls-cert")
	tlsCA := fs.String("tls-ca", "", "dial TLS in join mode, verifying the coordinator against this PEM CA bundle")
	tlsSkipVerify := fs.Bool("tls-skip-verify", false, "dial TLS without verifying the coordinator certificate (tests only)")
	drainTimeout := fs.Duration("drain-timeout", 0,
		"bound the graceful drain after SIGINT/SIGTERM; in-flight connections past it are force-closed (0 waits)")
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
	if *join != "" {
		joinOpts := []chanalloc.JoinOption{chanalloc.JoinAuthToken(*authToken)}
		if *tlsCA != "" || *tlsSkipVerify {
			cfg, err := chanalloc.EngineClientTLSConfig(*tlsCA, *tlsSkipVerify)
			if err != nil {
				return err
			}
			joinOpts = append(joinOpts, chanalloc.JoinTLS(cfg))
		}
		if stop != nil {
			// A signalled join worker leaves its session (the coordinator
			// requeues whatever it held) and returns nil: exit 0.
			joinOpts = append(joinOpts, chanalloc.JoinStop(stop))
		}
		fmt.Fprintf(out, "engineworker: protocol v%d, serving %v, joining %s\n",
			chanalloc.EngineProtocolVersion, chanalloc.EngineTaskNames(), *join)
		return chanalloc.EngineJoinAndServe(*join, joinOpts...)
	}
	serveOpts := []chanalloc.ServeOption{chanalloc.ServeAuthToken(*authToken)}
	if *tlsCert != "" || *tlsKey != "" {
		cfg, err := chanalloc.EngineServerTLSConfig(*tlsCert, *tlsKey)
		if err != nil {
			return err
		}
		serveOpts = append(serveOpts, chanalloc.ServeTLS(cfg))
	}
	if stop != nil {
		serveOpts = append(serveOpts,
			chanalloc.ServeStop(stop),
			chanalloc.ServeDrainTimeout(*drainTimeout))
	}
	fmt.Fprintf(out, "engineworker: protocol v%d, serving %v on %s\n",
		chanalloc.EngineProtocolVersion, chanalloc.EngineTaskNames(), *listen)
	return chanalloc.EngineListenAndServe(*listen, serveOpts...)
}
