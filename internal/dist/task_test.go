package dist

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/engine"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// TestMain lets the test binary double as a worker binary for the Process
// backend, mirroring the engine's own conformance suite.
func TestMain(m *testing.M) {
	engine.RunWorkerIfRequested()
	os.Exit(m.Run())
}

// ringGrid is a small (game × policy-mix) grid touching every policy name
// and rate family.
func ringGrid() []RingSpec {
	return []RingSpec{
		{Users: 3, Channels: 3, Radios: 2, Rate: RateSpec{Kind: "tdma", R0: 1},
			Policies: []string{PolicyGreedy}},
		{Users: 3, Channels: 3, Radios: 2, Rate: RateSpec{Kind: "harmonic", R0: 1, Param: 1},
			Policies: []string{PolicyBestResponse}},
		{Users: 4, Channels: 2, Radios: 2, Rate: RateSpec{Kind: "geometric", R0: 1, Param: 0.9},
			Policies: []string{PolicyGreedyRandom}},
		{Users: 3, Channels: 2, Radios: 1, Rate: RateSpec{Kind: "linear", R0: 1, Param: 0.1},
			Policies: []string{PolicyGreedy, PolicyBestResponse, PolicyGreedyRandom}, MaxRounds: 50},
	}
}

// TestRunRingBatchMatchesRunBatch: the serialisable ring task reproduces
// a serial loop of RunLocal calls run for run — matrices, convergence,
// message counts — with each run's policies built from the stream
// engine.JobSeed(root, r), for any worker count.
func TestRunRingBatchMatchesRunBatch(t *testing.T) {
	const root = 11
	specs := ringGrid()
	want := make([]*LocalResult, len(specs))
	for r, spec := range specs {
		rate, err := spec.Rate.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.NewGame(spec.Users, spec.Channels, spec.Radios, rate)
		if err != nil {
			t.Fatal(err)
		}
		var opts []CoordinatorOption
		if spec.MaxRounds > 0 {
			opts = append(opts, WithMaxRounds(spec.MaxRounds))
		}
		names := spec.Policies
		if len(names) == 1 {
			names = slices.Repeat(names, spec.Users)
		}
		rng := des.NewRNG(engine.JobSeed(root, r))
		policies := make([]Policy, len(names))
		for u, name := range names {
			if policies[u], err = buildPolicy(name, rate, rng); err != nil {
				t.Fatal(err)
			}
		}
		if want[r], err = RunLocal(g, policies, opts...); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 8} {
		fromTask, _, err := RunRingBatch(engine.NewInProcess(), specs, engine.Seed(root), engine.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for r, got := range fromTask {
			if !reflect.DeepEqual(got.Matrix, want[r].Alloc.Matrix()) {
				t.Fatalf("workers %d, run %d: matrix %v, RunLocal produced %v", workers, r, got.Matrix, want[r].Alloc.Matrix())
			}
			if got.Converged != want[r].Stats.Converged || got.Rounds != want[r].Stats.Rounds ||
				got.Moves != want[r].Stats.Moves || got.Messages != want[r].Stats.Messages {
				t.Fatalf("workers %d, run %d: stats %+v, RunLocal produced %+v", workers, r, got, want[r].Stats)
			}
		}
	}
}

// TestRunRingBatchClusterConformance runs the same grid over a real
// cluster coordinator on loopback, with two workers of this test process
// joined, and requires byte-identical outcomes — the cross-machine story
// of the distributed protocol, in one test.
func TestRunRingBatchClusterConformance(t *testing.T) {
	c, err := engine.NewCluster("127.0.0.1:0", engine.WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := engine.JoinAndServe(c.Addr(), engine.WithJoinStop(stop)); err != nil {
				t.Errorf("worker join: %v", err)
			}
		}()
	}
	defer func() { close(stop); c.Close(); wg.Wait() }()

	specs := ringGrid()
	want, _, err := RunRingBatch(engine.NewInProcess(), specs, engine.Seed(11), engine.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunRingBatch(c, specs, engine.Seed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cluster ring batch differs:\n%+v\nvs\n%+v", got, want)
	}
}

// TestRingSpecErrors pins the task's validation paths.
func TestRingSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		desc string
		spec RingSpec
		want string
	}{
		{"unknown rate", RingSpec{Users: 2, Channels: 2, Radios: 1,
			Rate: RateSpec{Kind: "nope", R0: 1}, Policies: []string{PolicyGreedy}}, "unknown rate kind"},
		{"unknown policy", RingSpec{Users: 2, Channels: 2, Radios: 1,
			Rate: RateSpec{R0: 1}, Policies: []string{"nope"}}, "unknown policy"},
		{"policy count mismatch", RingSpec{Users: 3, Channels: 2, Radios: 1,
			Rate: RateSpec{R0: 1}, Policies: []string{PolicyGreedy, PolicyGreedy}}, "policies for"},
		{"bad game", RingSpec{Users: 0, Channels: 2, Radios: 1,
			Rate: RateSpec{R0: 1}, Policies: []string{PolicyGreedy}}, ""},
	} {
		_, err := runRingSpec(tc.spec, des.NewRNG(1))
		if err == nil {
			t.Errorf("%s: want error", tc.desc)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.desc, err, tc.want)
		}
	}
}

// TestRateSpecBuild pins the rate families the wire format names.
func TestRateSpecBuild(t *testing.T) {
	for _, tc := range []struct {
		spec RateSpec
		want ratefn.Func
	}{
		{RateSpec{Kind: "tdma", R0: 2}, ratefn.NewTDMA(2)},
		{RateSpec{R0: 2}, ratefn.NewTDMA(2)}, // kind defaults to tdma
		{RateSpec{Kind: "harmonic", R0: 1, Param: 0.5}, ratefn.Harmonic{R0: 1, Alpha: 0.5}},
		{RateSpec{Kind: "geometric", R0: 1, Param: 0.9}, ratefn.Geometric{R0: 1, Beta: 0.9}},
		{RateSpec{Kind: "linear", R0: 1, Param: 0.1}, ratefn.Linear{R0: 1, Slope: 0.1}},
	} {
		got, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v built %#v, want %#v", tc.spec, got, tc.want)
		}
	}
}
