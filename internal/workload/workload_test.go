package workload

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

func TestFigure1Scenario(t *testing.T) {
	s, err := Figure1(ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Game.Users() != 4 || s.Game.Channels() != 5 || s.Game.Radios() != 4 {
		t.Fatalf("dims %dx%dx%d, want 4x5x4", s.Game.Users(), s.Game.Channels(), s.Game.Radios())
	}
	// The paper's own reading of Figure 1: loads 4,3,2,3,1 and it is NOT a NE.
	wantLoads := []int{4, 3, 2, 3, 1}
	for c, want := range wantLoads {
		if got := s.Alloc.Load(c); got != want {
			t.Errorf("load(c%d) = %d, want %d", c+1, got, want)
		}
	}
	ne, err := s.Game.IsNashEquilibrium(s.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("Figure 1 must not be a NE")
	}
	if len(core.CheckAllLemmas(s.Game, s.Alloc)) == 0 {
		t.Fatal("Figure 1 must violate lemmas")
	}
}

func TestFigure4Scenario(t *testing.T) {
	s, err := Figure4(ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if ok, v := core.TheoremNE(s.Game, s.Alloc); !ok {
		t.Fatalf("Figure 4 should satisfy Theorem 1: %v", v)
	}
	ne, err := s.Game.IsNashEquilibrium(s.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("Figure 4 should be a NE")
	}
	// u1 is the exception user: two radios on c5.
	if s.Alloc.Radios(0, 4) != 2 {
		t.Fatalf("u1 has %d radios on c5, want 2", s.Alloc.Radios(0, 4))
	}
}

func TestFigure5Scenario(t *testing.T) {
	s, err := Figure5(ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if ok, v := core.TheoremNE(s.Game, s.Alloc); !ok {
		t.Fatalf("Figure 5 should satisfy Theorem 1: %v", v)
	}
	// No user holds more than one radio on any channel.
	for i := 0; i < s.Game.Users(); i++ {
		for c := 0; c < s.Game.Channels(); c++ {
			if s.Alloc.Radios(i, c) > 1 {
				t.Fatalf("u%d stacks radios on c%d", i+1, c+1)
			}
		}
	}
}

// exampleName returns a resolvable instance of a family for smoke tests:
// parametric families need parameters, plain names resolve as-is.
func exampleName(family string) string {
	switch family {
	case "random":
		return "random:5,4,2,9"
	case "hetero":
		return "hetero:5,3,2,2,1"
	case "bistritz":
		return "bistritz:4,6,3"
	case "cogmoo":
		return "cogmoo:5,4,2"
	default:
		return family
	}
}

func TestByName(t *testing.T) {
	r := ratefn.NewTDMA(1)
	for _, family := range Names() {
		name := exampleName(family)
		s, err := ByName(name, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Description == "" {
			t.Errorf("%s has no description", name)
		}
		if s.Game == nil {
			t.Errorf("%s: no game", name)
		}
	}
	if _, err := ByName("nope", r); err == nil {
		t.Fatal("unknown scenario should error")
	}
	// Paper figures keep their historical names.
	for _, name := range []string{"fig1", "fig4", "fig5"} {
		s, err := ByName(name, r)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name || s.Alloc == nil {
			t.Fatalf("%s: name %q, pinned %v", name, s.Name, s.Alloc != nil)
		}
	}
}

func TestRegistryIsOpen(t *testing.T) {
	// The registry is process-global, so use a unique name per run to stay
	// idempotent under -count=N.
	name := fmt.Sprintf("custom-test-%d", testRegistrations.Add(1))
	called := false
	err := Register(Family{Name: name, Usage: name, Description: "test-only"},
		func(params string, r ratefn.Func) (*Scenario, error) {
			called = true
			return Figure5(r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ByName(name, ratefn.NewTDMA(1)); err != nil || !called {
		t.Fatalf("custom scenario did not resolve: %v", err)
	}
	if err := Register(Family{Name: name}, nil); err == nil {
		t.Fatal("duplicate / nil-generator registration should error")
	}
	if err := Register(Family{Name: "bad:name"},
		func(string, ratefn.Func) (*Scenario, error) { return nil, nil }); err == nil {
		t.Fatal("name with ':' should be rejected")
	}
}

// testRegistrations makes registry-mutating tests idempotent across
// repeated runs in one process.
var testRegistrations atomic.Int64

// okGen is a trivially valid generator for registration-error tests.
func okGen(string, ratefn.Func) (*Scenario, error) { return Figure5(ratefn.NewTDMA(1)) }

// TestRegisterErrorPaths pins each registration failure mode separately:
// duplicate names, names containing ':', empty names and nil generators
// must all be rejected without corrupting the registry.
func TestRegisterErrorPaths(t *testing.T) {
	name := fmt.Sprintf("errpath-test-%d", testRegistrations.Add(1))
	if err := Register(Family{Name: name, Usage: name, Description: "x"}, okGen); err != nil {
		t.Fatal(err)
	}
	before := len(Names())

	// Duplicate registration (with a perfectly valid generator).
	if err := Register(Family{Name: name, Usage: name, Description: "dup"}, okGen); err == nil {
		t.Error("duplicate registration should error")
	}
	// Name containing ':' collides with the parameter grammar.
	if err := Register(Family{Name: "bad:" + name}, okGen); err == nil {
		t.Error("name with ':' should be rejected")
	}
	// Empty name.
	if err := Register(Family{Name: ""}, okGen); err == nil {
		t.Error("empty name should be rejected")
	}
	// Nil generator under a fresh name.
	fresh := fmt.Sprintf("errpath-test-%d", testRegistrations.Add(1))
	if err := Register(Family{Name: fresh, Usage: fresh, Description: "x"}, nil); err == nil {
		t.Error("nil generator should be rejected")
	}

	// None of the failed registrations may have landed.
	if got := len(Names()); got != before {
		t.Fatalf("registry grew from %d to %d families on failed registrations", before, got)
	}
	// Unknown-family resolution names the known families.
	_, err := ByName("definitely-not-registered:1,2", ratefn.NewTDMA(1))
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown family error: %v", err)
	}
	// Malformed parameters surface the family's grammar error, prefixed
	// with the requested name.
	_, err = ByName("random:not,numbers,here", ratefn.NewTDMA(1))
	if err == nil || !strings.Contains(err.Error(), "random:not,numbers,here") {
		t.Fatalf("malformed-params error should cite the request: %v", err)
	}
}

func TestParametricFamilies(t *testing.T) {
	r := ratefn.NewTDMA(1)
	s, err := ByName("random:6,5,3,7", r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Game.Users() != 6 || s.Game.Channels() != 5 || s.Game.Radios() != 3 {
		t.Fatalf("random dims wrong: %dx%dx%d", s.Game.Users(), s.Game.Channels(), s.Game.Radios())
	}
	if s.Alloc == nil || s.Alloc.TotalRadios() != 18 {
		t.Fatal("random scenario must pin a full-deployment start")
	}
	// Same name, same bytes: the pinned start is seed-deterministic.
	s2, err := ByName("random:6,5,3,7", r)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Alloc.Equal(s2.Alloc) {
		t.Fatal("random scenario is not reproducible")
	}

	h, err := ByName("hetero:6,4,4,2,2,1", r)
	if err != nil {
		t.Fatal(err)
	}
	if h.Game.Channels() != 6 || h.Game.Users() != 5 || h.Game.Budget(0) != 4 || h.Game.Radios() != 0 {
		t.Fatalf("hetero scenario wrong: %+v", h)
	}

	m, err := ByName("mesh", r)
	if err != nil {
		t.Fatal(err)
	}
	// The naive static start concentrates every router on the first k
	// channels — the instructive non-equilibrium the example audits.
	if m.Alloc.Load(0) != m.Game.Users() {
		t.Fatalf("mesh naive start load(c1) = %d, want %d", m.Alloc.Load(0), m.Game.Users())
	}
	if ne, err := m.Game.IsNashEquilibrium(m.Alloc); err != nil || ne {
		t.Fatalf("mesh naive start should not be a NE (ne=%v err=%v)", ne, err)
	}

	for _, bad := range []string{
		"random:1,2", "random:x,2,1", "random", "hetero:5", "hetero",
		"mesh:1,2", "cognitive:9", "fig1:3",
	} {
		if _, err := ByName(bad, r); err == nil {
			t.Errorf("%q should not resolve", bad)
		}
	}
}

func TestBistritzFamily(t *testing.T) {
	r := ratefn.NewTDMA(1)
	s, err := ByName("bistritz:5,8,3", r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Game.Users() != 5 || s.Game.Channels() != 8 || s.Game.Radios() != 1 {
		t.Fatalf("dims %dx%dx%d, want 5x8x1",
			s.Game.Users(), s.Game.Channels(), s.Game.Radios())
	}
	if s.Name != "bistritz:5,8,3" {
		t.Fatalf("name %q not normalised", s.Name)
	}
	// The pinned start places every user's single radio.
	if s.Alloc == nil || s.Alloc.TotalRadios() != 5 {
		t.Fatalf("start must place all 5 radios: %v", s.Alloc)
	}
	// Same name, same bytes: the start is seed-deterministic.
	s2, err := ByName("bistritz:5,8,3", r)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Alloc.Equal(s2.Alloc) {
		t.Fatal("bistritz scenario is not reproducible")
	}
	// Seed defaults to 1 when omitted.
	s3, err := ByName("bistritz:5,8", r)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Name != "bistritz:5,8,1" {
		t.Fatalf("default-seed name %q, want bistritz:5,8,1", s3.Name)
	}
	// The target regime is reachable: best-response dynamics from the
	// random start must land on an interference-free allocation (every
	// lit channel holds exactly one radio — C >= N makes that the NE).
	res, err := dynamics.RunBestResponse(s.Game, s.Alloc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("dynamics did not converge in the Bistritz regime")
	}
	for c := 0; c < s.Game.Channels(); c++ {
		if load := res.Final.Load(c); load > 1 {
			t.Fatalf("channel %d carries %d radios; the C >= N equilibrium is interference-free", c, load)
		}
	}
}

func TestBistritzParseErrors(t *testing.T) {
	r := ratefn.NewTDMA(1)
	for _, bad := range []string{
		"bistritz",         // no parameters
		"bistritz:4",       // missing channels
		"bistritz:4,6,1,9", // too many parameters
		"bistritz:x,6",     // malformed integer
		"bistritz:0,4",     // no users
		"bistritz:5,3",     // C < N breaks the interference-free regime
		"bistritz:4,6,-2",  // negative seed
	} {
		if _, err := ByName(bad, r); err == nil {
			t.Errorf("%q should not resolve", bad)
		}
	}
}

func TestFamiliesListing(t *testing.T) {
	fams := Families()
	if len(fams) != len(Names()) {
		t.Fatalf("%d families, %d names", len(fams), len(Names()))
	}
	for _, f := range fams {
		if f.Usage == "" || f.Description == "" {
			t.Errorf("family %q missing usage or description", f.Name)
		}
	}
}

func TestRebuildExceptionNEBreaksUnderSharpDecay(t *testing.T) {
	// Experiment E8's core observation: the Figure-4 exception NE survives
	// constant R but admits a deviation under R(k) = 1/k (u1 moving a c5
	// radio to c6 gains). Theorem 1's sufficiency needs mild decay.
	s, err := Figure4(ratefn.Harmonic{R0: 1, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := core.TheoremNE(s.Game, s.Alloc); !ok {
		t.Fatal("theorem conditions are rate-independent and should still hold")
	}
	ne, err := s.Game.IsNashEquilibrium(s.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("Figure 4 should admit a deviation under R(k)=1/k")
	}
}

// TestScenarioCellBound pins the grammar's size bound: every parametric
// family refuses users·channels > MaxCells with ErrTooLarge before it
// allocates, overflowing products included, and accepts the bound itself.
func TestScenarioCellBound(t *testing.T) {
	r := ratefn.NewTDMA(1)
	for _, name := range []string{
		"random:4000000000,4000000000,1",
		"random:9223372036854775807,9223372036854775807,1",
		"random:4097,1024,1",
		"hetero:4000000000,1",
		"hetero:4194305,1",
		"bistritz:2049,2049",
		"cogmoo:4194305,1",
		"cogmoo:1,4194305",
		"mesh:4194305,1,1",
		"cognitive:2,2097153,1",
	} {
		_, err := ByName(name, r)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, want ErrTooLarge", name, err)
		}
	}
	s, err := ByName("random:1024,4096,1", r)
	if err != nil {
		t.Fatalf("random:1024,4096,1 sits on the bound: %v", err)
	}
	if cells := s.Game.Users() * s.Game.Channels(); cells != MaxCells {
		t.Fatalf("cells = %d, want %d", cells, MaxCells)
	}
}

// FuzzScenarioByName feeds arbitrary names to the scenario grammar.
// Nothing may panic, and an accepted scenario stays within MaxCells and
// pins only a legal allocation, so no name can make ByName allocate
// without bound.
func FuzzScenarioByName(f *testing.F) {
	for _, name := range []string{
		"fig1", "fig4", "fig5", "fig1:", "random:8,6,3", "random:8,6,3,7",
		"hetero:6,4,4,2,1", "bistritz:4,6", "bistritz:4,6,2", "cogmoo:5,3,2",
		"mesh", "mesh:9,6,3", "cognitive", "cognitive:10,8,3",
		"random:4000000000,4000000000,1", "hetero:4000000000,1", "random:-1,2,3",
		"nope",
	} {
		f.Add(name)
	}
	r := ratefn.NewTDMA(1)
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ByName(name, r)
		if err != nil {
			return
		}
		if s.Game == nil {
			t.Fatalf("%q: accepted without a game", name)
		}
		if cells := s.Game.Users() * s.Game.Channels(); cells > MaxCells {
			t.Fatalf("%q: %d cells accepted, bound is %d", name, cells, MaxCells)
		}
		if s.Alloc != nil {
			if err := s.Game.CheckAlloc(s.Alloc); err != nil {
				t.Fatalf("%q: pinned allocation: %v", name, err)
			}
		}
	})
}
