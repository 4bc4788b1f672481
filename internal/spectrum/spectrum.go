// Package spectrum models the physical side of the allocation problem:
// frequency bands divided into orthogonal channels, multi-radio devices,
// and the mapping from a game-theoretic strategy matrix to concrete
// radio-to-channel assignments.
//
// The game (package core) deals in abstract channel indices; this package
// gives those indices frequencies and owners so that examples and tools can
// print deployments a network engineer would recognise.
package spectrum

import (
	"fmt"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Band is a frequency band split into equal-width orthogonal channels
// (the paper's FDMA assumption).
type Band struct {
	// Name labels the band ("2.4 GHz ISM", ...).
	Name string
	// StartMHz is the lower edge of the first channel.
	StartMHz float64
	// ChannelWidthMHz is the width of each channel.
	ChannelWidthMHz float64
	// NumChannels is |C|.
	NumChannels int
}

// Validate checks band sanity.
func (b Band) Validate() error {
	switch {
	case b.NumChannels < 1:
		return fmt.Errorf("spectrum: band %q has %d channels, want >= 1", b.Name, b.NumChannels)
	case b.ChannelWidthMHz <= 0:
		return fmt.Errorf("spectrum: band %q channel width %v MHz, want > 0", b.Name, b.ChannelWidthMHz)
	case b.StartMHz <= 0:
		return fmt.Errorf("spectrum: band %q starts at %v MHz, want > 0", b.Name, b.StartMHz)
	}
	return nil
}

// Channel is one orthogonal channel of a band.
type Channel struct {
	Index     int // 0-based channel index
	CenterMHz float64
	WidthMHz  float64
}

// Channel returns channel i of the band.
func (b Band) Channel(i int) (Channel, error) {
	if err := b.Validate(); err != nil {
		return Channel{}, err
	}
	if i < 0 || i >= b.NumChannels {
		return Channel{}, fmt.Errorf("spectrum: channel %d out of range [0, %d)", i, b.NumChannels)
	}
	return Channel{
		Index:     i,
		CenterMHz: b.StartMHz + (float64(i)+0.5)*b.ChannelWidthMHz,
		WidthMHz:  b.ChannelWidthMHz,
	}, nil
}

// String renders the channel as "c3 @ 2422.0 MHz".
func (c Channel) String() string {
	return fmt.Sprintf("c%d @ %.1f MHz", c.Index+1, c.CenterMHz)
}

// UNII5GHz returns a U-NII 5 GHz band with eight orthogonal 20 MHz channels
// (36..64).
func UNII5GHz() Band {
	return Band{Name: "5 GHz U-NII-1/2", StartMHz: 5170, ChannelWidthMHz: 20, NumChannels: 8}
}

// Device is a multi-radio node.
type Device struct {
	// ID is a stable identifier ("mesh-router-3").
	ID string
	// Radios is the device's radio count k_i.
	Radios int
}

// Deployment binds devices to a band.
type Deployment struct {
	band    Band
	devices []Device
}

// NewDeployment validates devices against the band: every device needs
// 1 <= Radios <= NumChannels (the paper's k <= |C|), a non-empty unique ID.
func NewDeployment(band Band, devices []Device) (*Deployment, error) {
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("spectrum: no devices")
	}
	seen := make(map[string]bool, len(devices))
	for i, d := range devices {
		if d.ID == "" {
			return nil, fmt.Errorf("spectrum: device %d has empty ID", i)
		}
		if seen[d.ID] {
			return nil, fmt.Errorf("spectrum: duplicate device ID %q", d.ID)
		}
		seen[d.ID] = true
		if d.Radios < 1 {
			return nil, fmt.Errorf("spectrum: device %q has %d radios, want >= 1", d.ID, d.Radios)
		}
		if d.Radios > band.NumChannels {
			return nil, fmt.Errorf("spectrum: device %q has %d radios for %d channels (paper requires k <= |C|)",
				d.ID, d.Radios, band.NumChannels)
		}
	}
	return &Deployment{band: band, devices: append([]Device(nil), devices...)}, nil
}

// Band returns the deployment's band.
func (d *Deployment) Band() Band { return d.band }

// HeteroGame builds this deployment's game with one budget per device
// (its radio count), mixed or not.
func (d *Deployment) HeteroGame(rate ratefn.Func) (*core.Game, error) {
	budgets := make([]int, len(d.devices))
	for i, dev := range d.devices {
		budgets[i] = dev.Radios
	}
	return core.NewHeteroGame(d.band.NumChannels, budgets, rate)
}

// Assignment maps one radio of one device to a concrete channel.
type Assignment struct {
	DeviceID string
	Radio    int // 0-based radio index within the device
	Channel  Channel
}

// String renders the assignment as "mesh-router-3 radio 2 -> c4 @ 5230.0 MHz".
func (a Assignment) String() string {
	return fmt.Sprintf("%s radio %d -> %s", a.DeviceID, a.Radio, a.Channel)
}

// Assignments translates a strategy matrix into per-radio channel
// assignments, in device order. The allocation must match the deployment's
// dimensions and budgets.
func (d *Deployment) Assignments(a *core.Alloc) ([]Assignment, error) {
	if a == nil {
		return nil, fmt.Errorf("spectrum: nil allocation")
	}
	if a.Users() != len(d.devices) || a.Channels() != d.band.NumChannels {
		return nil, fmt.Errorf("spectrum: allocation is %dx%d, deployment is %dx%d",
			a.Users(), a.Channels(), len(d.devices), d.band.NumChannels)
	}
	var out []Assignment
	for i, dev := range d.devices {
		if total := a.UserTotal(i); total > dev.Radios {
			return nil, fmt.Errorf("spectrum: device %q assigned %d radios, owns %d", dev.ID, total, dev.Radios)
		}
		radio := 0
		for c := 0; c < a.Channels(); c++ {
			for r := 0; r < a.Radios(i, c); r++ {
				ch, err := d.band.Channel(c)
				if err != nil {
					return nil, err
				}
				out = append(out, Assignment{DeviceID: dev.ID, Radio: radio, Channel: ch})
				radio++
			}
		}
	}
	return out, nil
}
