package spectrum

import (
	"math"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// ism2400 is the 2.4 GHz ISM band modelled as its three orthogonal
// 802.11b channels (1, 6, 11 -> 22 MHz wide): a small band for the
// validation and error-path tests.
var ism2400 = Band{Name: "2.4 GHz ISM (orthogonal)", StartMHz: 2401, ChannelWidthMHz: 22, NumChannels: 3}

func TestBandValidate(t *testing.T) {
	if err := ism2400.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := UNII5GHz().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Band{
		{Name: "x", StartMHz: 100, ChannelWidthMHz: 5, NumChannels: 0},
		{Name: "x", StartMHz: 100, ChannelWidthMHz: 0, NumChannels: 3},
		{Name: "x", StartMHz: 0, ChannelWidthMHz: 5, NumChannels: 3},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("band %d should be invalid", i)
		}
	}
}

func TestChannelFrequencies(t *testing.T) {
	b := UNII5GHz()
	first, err := b.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.CenterMHz-5180) > 1e-9 {
		t.Errorf("channel 36 center = %v, want 5180", first.CenterMHz)
	}
	last, err := b.Channel(7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.CenterMHz-5320) > 1e-9 {
		t.Errorf("channel 64 center = %v, want 5320", last.CenterMHz)
	}
	if !strings.Contains(first.String(), "5180") {
		t.Errorf("channel string %q missing frequency", first.String())
	}
}

func TestChannelErrors(t *testing.T) {
	b := ism2400
	if _, err := b.Channel(-1); err == nil {
		t.Error("negative channel should error")
	}
	if _, err := b.Channel(3); err == nil {
		t.Error("out-of-range channel should error")
	}
	var invalid Band
	if _, err := invalid.Channel(0); err == nil {
		t.Error("invalid band should error")
	}
}

func devices(counts ...int) []Device {
	out := make([]Device, len(counts))
	for i, k := range counts {
		out[i] = Device{ID: string(rune('a' + i)), Radios: k}
	}
	return out
}

func TestNewDeploymentValidation(t *testing.T) {
	b := UNII5GHz()
	if _, err := NewDeployment(b, nil); err == nil {
		t.Error("no devices should error")
	}
	if _, err := NewDeployment(b, []Device{{ID: "", Radios: 1}}); err == nil {
		t.Error("empty ID should error")
	}
	if _, err := NewDeployment(b, []Device{{ID: "a", Radios: 1}, {ID: "a", Radios: 1}}); err == nil {
		t.Error("duplicate ID should error")
	}
	if _, err := NewDeployment(b, devices(0)); err == nil {
		t.Error("zero radios should error")
	}
	if _, err := NewDeployment(b, devices(9)); err == nil {
		t.Error("radios > channels should error")
	}
	var invalid Band
	if _, err := NewDeployment(invalid, devices(1)); err == nil {
		t.Error("invalid band should error")
	}
}

func TestDeploymentGameUniform(t *testing.T) {
	d, err := NewDeployment(UNII5GHz(), devices(3, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.HeteroGame(ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	if g.Users() != 4 || g.Channels() != 8 || g.Radios() != 3 {
		t.Fatalf("game dims %dx%dx%d", g.Users(), g.Channels(), g.Radios())
	}
}

func TestDeploymentHeteroGameMixed(t *testing.T) {
	d, err := NewDeployment(UNII5GHz(), devices(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	hg, err := d.HeteroGame(ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	if hg.Budget(0) != 3 || hg.Budget(1) != 2 {
		t.Fatal("hetero budgets wrong")
	}
}

func TestAssignmentsRoundTrip(t *testing.T) {
	d, err := NewDeployment(UNII5GHz(), devices(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.HeteroGame(ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := core.Algorithm1(g)
	if err != nil {
		t.Fatal(err)
	}
	assignments, err := d.Assignments(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 6 {
		t.Fatalf("%d assignments, want 6", len(assignments))
	}
	// Per-device radio indices are 0..k-1 and channel loads match.
	loads := make(map[int]int)
	radioSeen := make(map[string]map[int]bool)
	for _, as := range assignments {
		loads[as.Channel.Index]++
		if radioSeen[as.DeviceID] == nil {
			radioSeen[as.DeviceID] = make(map[int]bool)
		}
		if radioSeen[as.DeviceID][as.Radio] {
			t.Fatalf("duplicate radio index in %v", as)
		}
		radioSeen[as.DeviceID][as.Radio] = true
		if as.String() == "" {
			t.Fatal("empty assignment string")
		}
	}
	for c := 0; c < alloc.Channels(); c++ {
		if loads[c] != alloc.Load(c) {
			t.Fatalf("channel %d: %d assignments vs load %d", c, loads[c], alloc.Load(c))
		}
	}
}

func TestAssignmentsHeteroNE(t *testing.T) {
	// End-to-end: mixed deployment -> hetero game -> greedy allocation ->
	// frequencies, with the allocation verified as NE.
	d, err := NewDeployment(UNII5GHz(), devices(4, 2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	hg, err := d.HeteroGame(ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := core.Algorithm1(hg)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := hg.IsNashEquilibrium(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("hetero deployment allocation not NE")
	}
	assignments, err := d.Assignments(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 10 {
		t.Fatalf("%d assignments, want 10", len(assignments))
	}
}

func TestAssignmentsErrors(t *testing.T) {
	d, err := NewDeployment(ism2400, devices(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Assignments(nil); err == nil {
		t.Error("nil alloc should error")
	}
	wrong, err := core.NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Assignments(wrong); err == nil {
		t.Error("mismatched dims should error")
	}
	over, err := core.AllocFromMatrix([][]int{
		{2, 1, 0}, // 3 radios, device owns 2
		{0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Assignments(over); err == nil {
		t.Error("over-budget assignment should error")
	}
}
