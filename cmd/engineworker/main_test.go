package main

import (
	"os"
	"path/filepath"
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

// TestMissingJoinIsUsageError: workers only dial in, so a worker with no
// coordinator address is a configuration error.
func TestMissingJoinIsUsageError(t *testing.T) {
	err := run(nil, &strings.Builder{}, nil)
	if err == nil || !strings.Contains(err.Error(), "-join is required") {
		t.Fatalf("err = %v, want the missing -join usage error", err)
	}
}

// TestServesRingBatch drives the full worker binary path end to end over
// TLS and with a shared secret: a cluster coordinator on loopback TCP,
// run() joining it with -tls-ca and -auth-token, and a
// distributed-protocol grid dispatched to it — byte-identical to
// in-process.
func TestServesRingBatch(t *testing.T) {
	now := time.Now()
	certPEM, keyPEM, err := chanalloc.GenerateSelfSignedCert([]string{"127.0.0.1"},
		now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile, keyFile := filepath.Join(dir, "cert.pem"), filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, certPEM, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	srvTLS, err := chanalloc.EngineServerTLSConfig(certFile, keyFile)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := chanalloc.NewClusterBackend("127.0.0.1:0",
		chanalloc.ClusterTLS(srvTLS), chanalloc.ClusterAuthToken("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	workerErr := make(chan error, 1)
	var b strings.Builder
	go func() {
		workerErr <- run([]string{"-join", coord.Addr(), "-tls-ca", certFile, "-auth-token", "s3cret"}, &b, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		coord.Close()
		if err := <-workerErr; err != nil {
			t.Errorf("worker run: %v", err)
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
