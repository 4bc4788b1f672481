package engine

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"time"
)

// acceptConns accepts connections until lis closes (returning nil), handing
// each to handle. A long-lived coordinator must ride out transient accept
// failures (aborted connections, descriptor-pressure bursts) rather than
// die and strand every future batch — the net/http idiom, with exponential
// backoff logged under the given label.
func acceptConns(lis net.Listener, label string, handle func(net.Conn)) error {
	var backoff time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				fmt.Fprintf(os.Stderr, "%s: accept: %v; retrying in %v\n", label, err, backoff)
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("engine: accepting worker connection: %w", err)
		}
		backoff = 0
		handle(conn)
	}
}

// listenWorkerAddr announces on a worker-address string ("host:port",
// ":port", "unix:/path" or a bare socket path), removing a stale unix
// socket file first so a restarted coordinator can rebind.
func listenWorkerAddr(addr string) (net.Listener, error) {
	network, address, err := splitWorkerAddr(addr)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		if err := os.Remove(address); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("engine: removing stale socket %s: %w", address, err)
		}
	}
	lis, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("engine: listening on %s: %w", addr, err)
	}
	return lis, nil
}

// remoteName labels a connection for logs.
func remoteName(conn net.Conn) string {
	if ra := conn.RemoteAddr(); ra != nil && strings.TrimSpace(ra.String()) != "" {
		return ra.String()
	}
	return "peer"
}
