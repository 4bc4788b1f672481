package macsim

import (
	"fmt"
	"strings"

	"github.com/multiradio/chanalloc/internal/core"
)

// SlotAssignment names the owner of one TDMA slot: user index and which of
// that user's radios on the channel (0-based) transmits.
type SlotAssignment struct {
	User  int
	Radio int
}

// ChannelSchedule is a reservation-TDMA frame for one channel: slot s
// belongs to Slots[s]. A frame has exactly one slot per radio on the
// channel, so every radio gets a 1/k_c share of air time — the mechanism
// behind the paper's equal-share utility (§2: "a reservation-based TDMA
// schedule on a given channel").
type ChannelSchedule struct {
	Channel int
	Slots   []SlotAssignment
}

// BuildSchedules derives one round-robin TDMA frame per channel from an
// allocation. Slot order interleaves users (u1's first radio, u2's first,
// ..., u1's second, ...) so no user waits a long burst.
func BuildSchedules(a *core.Alloc) ([]ChannelSchedule, error) {
	if a == nil {
		return nil, fmt.Errorf("macsim: nil allocation")
	}
	out := make([]ChannelSchedule, a.Channels())
	for c := 0; c < a.Channels(); c++ {
		out[c].Channel = c
		if a.Load(c) == 0 {
			continue
		}
		out[c].Slots = make([]SlotAssignment, 0, a.Load(c))
		// Interleave: round r grants one slot to each user that still has
		// an unscheduled radio on this channel.
		for r := 0; ; r++ {
			granted := false
			for i := 0; i < a.Users(); i++ {
				if a.Radios(i, c) > r {
					out[c].Slots = append(out[c].Slots, SlotAssignment{User: i, Radio: r})
					granted = true
				}
			}
			if !granted {
				break
			}
		}
	}
	return out, nil
}

// String renders the frame as "c3: u1 u2 u4 u1".
func (cs ChannelSchedule) String() string {
	if len(cs.Slots) == 0 {
		return fmt.Sprintf("c%d: (idle)", cs.Channel+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "c%d:", cs.Channel+1)
	for _, s := range cs.Slots {
		fmt.Fprintf(&b, " u%d", s.User+1)
	}
	return b.String()
}

// VerifyFairShare checks that the schedules implement exactly the game's
// equal-share assumption: on every channel, each radio owns exactly one
// slot, so user i's share is k_{i,c}/k_c.
func VerifyFairShare(a *core.Alloc, schedules []ChannelSchedule) error {
	if len(schedules) != a.Channels() {
		return fmt.Errorf("macsim: %d schedules for %d channels", len(schedules), a.Channels())
	}
	for c, cs := range schedules {
		if cs.Channel != c {
			return fmt.Errorf("macsim: schedule %d claims channel %d", c, cs.Channel)
		}
		if len(cs.Slots) != a.Load(c) {
			return fmt.Errorf("macsim: channel %d frame has %d slots for load %d", c, len(cs.Slots), a.Load(c))
		}
		counts := make(map[int]int)
		for _, s := range cs.Slots {
			if s.User < 0 || s.User >= a.Users() {
				return fmt.Errorf("macsim: channel %d slot owned by invalid user %d", c, s.User)
			}
			counts[s.User]++
		}
		for i := 0; i < a.Users(); i++ {
			if counts[i] != a.Radios(i, c) {
				return fmt.Errorf("macsim: channel %d user %d owns %d slots, has %d radios",
					c, i, counts[i], a.Radios(i, c))
			}
		}
	}
	return nil
}
