package macsim

import "fmt"

// TDMAConfig parameterises the reservation-TDMA frame simulator.
type TDMAConfig struct {
	// Radios is the number of radios sharing the channel (slots per frame).
	Radios int
	// SlotTime is the duration of one data slot in µs.
	SlotTime float64
	// Guard is the per-slot guard interval in µs (switching margin); it is
	// pure overhead.
	Guard float64
	// DataRate is the channel bitrate in Mbit/s while a slot is active.
	DataRate float64
	// Frames is how many complete frames to simulate.
	Frames int
}

// Validate checks configuration sanity.
func (c TDMAConfig) Validate() error {
	switch {
	case c.Radios < 1:
		return fmt.Errorf("macsim: tdma radios = %d, want >= 1", c.Radios)
	case c.SlotTime <= 0:
		return fmt.Errorf("macsim: tdma slot time = %v, want > 0", c.SlotTime)
	case c.Guard < 0:
		return fmt.Errorf("macsim: tdma guard = %v, want >= 0", c.Guard)
	case c.DataRate <= 0:
		return fmt.Errorf("macsim: tdma data rate = %v, want > 0", c.DataRate)
	case c.Frames < 1:
		return fmt.Errorf("macsim: tdma frames = %d, want >= 1", c.Frames)
	}
	return nil
}

// TDMAResult reports a reservation-TDMA simulation.
type TDMAResult struct {
	Radios     int
	SimTime    float64   // µs
	Throughput float64   // aggregate goodput, Mbit/s
	PerRadio   []float64 // per-radio goodput, Mbit/s
}

// SimulateTDMA simulates a round-robin reservation TDMA schedule: each frame
// contains exactly one slot per radio, so every radio receives an identical
// share. The total rate is SlotTime/(SlotTime+Guard) · DataRate regardless
// of the number of radios — the paper's "reservation TDMA" line in Figure 3.
func SimulateTDMA(cfg TDMAConfig) (TDMAResult, error) {
	if err := cfg.Validate(); err != nil {
		return TDMAResult{}, err
	}
	bits := make([]float64, cfg.Radios)
	// Each radio's bits are added slot by slot in frame order, as the slots
	// are served; one product per radio would round differently.
	for frame := 0; frame < cfg.Frames; frame++ {
		for r := range bits {
			bits[r] += cfg.SlotTime * cfg.DataRate // bits = µs · Mbit/s
		}
	}

	simTime := float64(cfg.Frames) * float64(cfg.Radios) * (cfg.SlotTime + cfg.Guard)
	res := TDMAResult{
		Radios:   cfg.Radios,
		SimTime:  simTime,
		PerRadio: make([]float64, cfg.Radios),
	}
	var total float64
	for r := range bits {
		mbps := bits[r] / simTime
		res.PerRadio[r] = mbps
		total += mbps
	}
	res.Throughput = total
	return res, nil
}
