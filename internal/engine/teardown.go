package engine

import (
	"fmt"
	"time"
)

// defaultTeardownGrace bounds how long a backend waits for a worker to
// acknowledge a polite shutdown (process exit after its job stream ends)
// before escalating.
const defaultTeardownGrace = 5 * time.Second

// reap runs wait — a blocking teardown step such as exec.Cmd.Wait or
// waiting for connection goroutines to drain — and, if it has not returned
// within grace, calls kill (process kill, forced connection close) to
// unblock it, then keeps waiting for wait to return. grace <= 0 waits
// forever. This is the kill-after-timeout escalation shared by both
// teardown paths — a spawned shard at batch end and Cluster.Close: a hung
// worker must never block the coordinator indefinitely.
func reap(grace time.Duration, wait func() error, kill func() error) error {
	if grace <= 0 {
		return wait()
	}
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
	}
	// The timer and wait can become ready together (select picks randomly),
	// and the worker may finish in the instant before kill lands — drain
	// first, and never turn a teardown whose wait actually succeeded into a
	// failure.
	select {
	case err := <-done:
		return err
	default:
	}
	killErr := kill()
	err := <-done
	if err == nil {
		return nil
	}
	if killErr != nil {
		return fmt.Errorf("worker unresponsive after %v teardown grace and kill failed: %v (wait: %v)",
			grace, killErr, err)
	}
	return fmt.Errorf("worker killed after %v teardown grace (wait: %v)", grace, err)
}
