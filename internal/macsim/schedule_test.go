package macsim

import (
	"math"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

func figure1Alloc(t *testing.T) *core.Alloc {
	t.Helper()
	a, err := core.AllocFromMatrix([][]int{
		{1, 1, 1, 1, 0},
		{1, 0, 1, 0, 1},
		{1, 2, 0, 1, 0},
		{1, 0, 0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildSchedulesFigure1(t *testing.T) {
	a := figure1Alloc(t)
	schedules, err := BuildSchedules(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFairShare(a, schedules); err != nil {
		t.Fatal(err)
	}
	// Channel c2 (index 1): u1 has one radio, u3 has two -> 3 slots, u3
	// owning two of them.
	c2 := schedules[1]
	if len(c2.Slots) != 3 {
		t.Fatalf("c2 frame has %d slots, want 3", len(c2.Slots))
	}
	if got := ownedSlots(c2, 2); got != 2 {
		t.Errorf("u3 owns %d of c2's slots, want 2", got)
	}
	if got := ownedSlots(c2, 0); got != 1 {
		t.Errorf("u1 owns %d of c2's slots, want 1", got)
	}
	if got := ownedSlots(c2, 3); got != 0 {
		t.Errorf("u4 owns %d of c2's slots, want 0", got)
	}
}

// ownedSlots counts the slots of the frame that belong to user.
func ownedSlots(cs ChannelSchedule, user int) int {
	owned := 0
	for _, s := range cs.Slots {
		if s.User == user {
			owned++
		}
	}
	return owned
}

func TestBuildSchedulesInterleaves(t *testing.T) {
	// Two radios of one user never occupy adjacent slots while another
	// user still has a pending radio: the frame interleaves rounds.
	a, err := core.AllocFromMatrix([][]int{
		{2, 0},
		{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	schedules, err := BuildSchedules(a)
	if err != nil {
		t.Fatal(err)
	}
	slots := schedules[0].Slots
	// Round-robin order: u1 radio0, u2 radio0, u1 radio1.
	want := []SlotAssignment{{User: 0, Radio: 0}, {User: 1, Radio: 0}, {User: 0, Radio: 1}}
	if len(slots) != len(want) {
		t.Fatalf("frame %v, want %v", slots, want)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("frame %v, want %v", slots, want)
		}
	}
}

func TestBuildSchedulesIdleChannel(t *testing.T) {
	a, err := core.AllocFromMatrix([][]int{
		{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	schedules, err := BuildSchedules(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(schedules[1].Slots) != 0 {
		t.Fatal("idle channel should have an empty frame")
	}
	if !strings.Contains(schedules[1].String(), "idle") {
		t.Errorf("idle rendering: %q", schedules[1].String())
	}
	if schedules[0].String() == "" {
		t.Error("empty rendering for active channel")
	}
}

func TestBuildSchedulesNil(t *testing.T) {
	if _, err := BuildSchedules(nil); err == nil {
		t.Fatal("nil allocation should error")
	}
}

func TestSchedulesMatchGameUtilities(t *testing.T) {
	// End-to-end: schedule shares × channel rate must reproduce the game's
	// utility (Eq. 3) exactly for constant R.
	g, err := core.NewGame(4, 5, 4, ratefn.NewTDMA(6))
	if err != nil {
		t.Fatal(err)
	}
	a := figure1Alloc(t)
	schedules, err := BuildSchedules(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Users(); i++ {
		var fromSchedule float64
		for c := 0; c < a.Channels(); c++ {
			if n := len(schedules[c].Slots); n > 0 {
				share := float64(ownedSlots(schedules[c], i)) / float64(n)
				fromSchedule += share * g.Rate().Rate(a.Load(c))
			}
		}
		if math.Abs(fromSchedule-g.Utility(a, i)) > 1e-9 {
			t.Errorf("u%d: schedule-derived rate %v != utility %v", i+1, fromSchedule, g.Utility(a, i))
		}
	}
}

func TestVerifyFairShareCatchesCorruption(t *testing.T) {
	a := figure1Alloc(t)
	schedules, err := BuildSchedules(a)
	if err != nil {
		t.Fatal(err)
	}
	// Steal a slot from u3 on c2 and give it to u4.
	for s := range schedules[1].Slots {
		if schedules[1].Slots[s].User == 2 {
			schedules[1].Slots[s].User = 3
			break
		}
	}
	if err := VerifyFairShare(a, schedules); err == nil {
		t.Fatal("corrupted schedule should fail verification")
	}
	// Wrong schedule count.
	if err := VerifyFairShare(a, schedules[:2]); err == nil {
		t.Fatal("short schedule list should fail")
	}
}
