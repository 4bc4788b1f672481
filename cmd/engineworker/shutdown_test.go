package main

import (
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc"
)

// TestJoinModeStopsGracefully: a registered join worker leaves its session
// and returns nil when stopped.
func TestJoinModeStopsGracefully(t *testing.T) {
	coord, err := chanalloc.NewClusterBackend("unix:" + t.TempDir() + "/coord.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stop := make(chan struct{})
	done := make(chan error, 1)
	var b strings.Builder
	go func() { done <- run([]string{"-join", coord.Addr()}, &b, stop) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.Members()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(coord.Members()) == 0 {
		t.Fatal("worker never registered")
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stopped join worker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join-mode worker did not stop")
	}
}
