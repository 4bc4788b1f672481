package main

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/multiradio/chanalloc"
)

func TestTasksFlagListsRegistry(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-tasks"}, &b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), chanalloc.DistRingTask) {
		t.Fatalf("task listing %q misses %q", b.String(), chanalloc.DistRingTask)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, &strings.Builder{}, nil); err == nil {
		t.Fatal("bad flag should error")
	}
}

// TestServesRingBatch drives the full worker binary path end to end: run()
// listening on a unix socket, a socket-backend coordinator dispatching a
// distributed-protocol grid to it, results byte-identical to in-process.
func TestServesRingBatch(t *testing.T) {
	addr := "unix:" + t.TempDir() + "/worker.sock"
	var b strings.Builder
	go run([]string{"-listen", addr}, &b, nil) // serves until the test binary exits
	waitForListener(t, addr)

	specs := []chanalloc.DistRingSpec{
		{Users: 3, Channels: 3, Radios: 2, Rate: chanalloc.DistRateSpec{Kind: "tdma", R0: 1},
			Policies: []string{"greedy"}},
		{Users: 4, Channels: 2, Radios: 2, Rate: chanalloc.DistRateSpec{Kind: "harmonic", R0: 1, Param: 1},
			Policies: []string{"greedy-random"}},
	}
	want, _, err := chanalloc.RunDistributedRingBatch(chanalloc.NewInProcessBackend(), specs,
		chanalloc.EngineSeed(5), chanalloc.EngineWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := chanalloc.RunDistributedRingBatch(chanalloc.NewSocketBackendWith([]string{addr}), specs,
		chanalloc.EngineSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("worker-served batch differs:\n%+v\nvs\n%+v", got, want)
	}
}

// TestJoinsCluster drives the worker binary's join mode end to end: a
// cluster coordinator accepting joins, run() dialing in and registering,
// and a distributed-protocol grid dispatched through the membership —
// byte-identical to in-process.
func TestJoinsCluster(t *testing.T) {
	coord, err := chanalloc.NewClusterBackend("unix:"+t.TempDir()+"/coord.sock",
		chanalloc.ClusterWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	workerErr := make(chan error, 1)
	go func() { workerErr <- run([]string{"-join", coord.Addr()}, &b, nil) }()
	t.Cleanup(func() {
		coord.Close()
		// The worker's join loop must end with the coordinator gone for
		// good — and a permanent rejection would surface here as a failure
		// instead of a hang at the batch's join-wait.
		select {
		case err := <-workerErr:
			if err != nil {
				t.Errorf("worker run: %v", err)
			}
		case <-time.After(100 * time.Millisecond):
			// Still redialing the closed coordinator; that's the documented
			// outlive-the-coordinator behaviour, not a leak worth failing on
			// in a test binary about to exit.
		}
	})

	specs := []chanalloc.DistRingSpec{
		{Users: 3, Channels: 3, Radios: 2, Rate: chanalloc.DistRateSpec{Kind: "tdma", R0: 1},
			Policies: []string{"greedy"}},
		{Users: 4, Channels: 2, Radios: 2, Rate: chanalloc.DistRateSpec{Kind: "harmonic", R0: 1, Param: 1},
			Policies: []string{"greedy-random"}},
	}
	want, _, err := chanalloc.RunDistributedRingBatch(chanalloc.NewInProcessBackend(), specs,
		chanalloc.EngineSeed(5), chanalloc.EngineWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := chanalloc.RunDistributedRingBatch(coord, specs, chanalloc.EngineSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cluster-served batch differs:\n%+v\nvs\n%+v", got, want)
	}
}

// waitForListener polls until the worker's socket accepts connections.
func waitForListener(t *testing.T, addr string) {
	t.Helper()
	path := strings.TrimPrefix(addr, "unix:")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err := net.Dial("unix", path); err == nil {
			conn.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker never listened on %s", addr)
}
