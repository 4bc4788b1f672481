package dist

import (
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

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
// the closure-based RunBatch run for run — matrices, convergence, message
// counts — for the same root seed.
func TestRunRingBatchMatchesRunBatch(t *testing.T) {
	specs := ringGrid()
	fromTask, _, err := RunRingBatch(engine.NewInProcess(), specs, engine.Seed(11), engine.Workers(2))
	if err != nil {
		t.Fatal(err)
	}

	closures := make([]RunSpec, len(specs))
	for i, spec := range specs {
		spec := spec
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
		closures[i] = RunSpec{
			Game: g,
			Policies: func(rng *des.RNG) ([]Policy, error) {
				names := spec.Policies
				if len(names) == 1 {
					uniform := make([]string, spec.Users)
					for u := range uniform {
						uniform[u] = names[0]
					}
					names = uniform
				}
				out := make([]Policy, len(names))
				for u, name := range names {
					var err error
					if out[u], err = buildPolicy(name, rate, rng); err != nil {
						return nil, err
					}
				}
				return out, nil
			},
			Opts: opts,
		}
	}
	fromClosures, err := RunBatch(closures, engine.Seed(11), engine.Workers(2))
	if err != nil {
		t.Fatal(err)
	}

	for r := range specs {
		want := fromClosures.Runs[r]
		got := fromTask[r]
		if !reflect.DeepEqual(got.Matrix, want.Alloc.Matrix()) {
			t.Fatalf("run %d: matrix %v, RunBatch produced %v", r, got.Matrix, want.Alloc.Matrix())
		}
		if got.Converged != want.Stats.Converged || got.Rounds != want.Stats.Rounds ||
			got.Moves != want.Stats.Moves || got.Messages != want.Stats.Messages {
			t.Fatalf("run %d: stats %+v, RunBatch produced %+v", r, got, want.Stats)
		}
	}
}

// TestRunRingBatchSocketConformance runs the same grid over the real socket
// worker loop on loopback and requires byte-identical outcomes — the
// cross-machine story of the distributed protocol, in one test.
func TestRunRingBatchSocketConformance(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); engine.Serve(lis) }()
	defer func() { lis.Close(); <-done }()

	specs := ringGrid()
	want, _, err := RunRingBatch(engine.NewInProcess(), specs, engine.Seed(11), engine.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunRingBatch(engine.NewSocketWith([]string{lis.Addr().String(), lis.Addr().String()}),
		specs, engine.Seed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("socket ring batch differs:\n%+v\nvs\n%+v", got, want)
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
