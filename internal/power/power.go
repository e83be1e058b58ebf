// Package power estimates GDDR5 DRAM power with the Micron power
// calculator methodology [37] adapted to GDDR5 as in Section VI-B: energy
// per operation derived from datasheet currents, plus a static background
// term. As the paper notes, most GDDR5 power is spent in the high-speed
// I/O drivers, so the array-access energy added by extra row misses moves
// total power only slightly (the power experiment in internal/experiments
// holds the paper's row-hit-rate drop and GDDR5 power change).
package power

import "dramlat/internal/dram"

// Model holds per-operation energies for one 64-bit channel (two x32
// devices in tandem).
type Model struct {
	// EactNJ is the activate+precharge pair energy in nanojoules
	// (IDD0-derived, both devices).
	EactNJ float64
	// ErdBurstNJ / EwrBurstNJ are per-64B-burst energies including the
	// I/O drivers (the dominant term at 6 Gbps).
	ErdBurstNJ float64
	EwrBurstNJ float64
	// PbgMW is the background (standby + clocking) power per channel in
	// milliwatts.
	PbgMW float64
	// TickSeconds converts ticks to time (tCK).
	TickSeconds float64
}

// DefaultGDDR5 returns the model for the simulated Hynix part: I/O-heavy
// burst energy, modest array energy.
func DefaultGDDR5() Model {
	return Model{
		EactNJ:      5.0,
		ErdBurstNJ:  5.0,
		EwrBurstNJ:  5.2,
		PbgMW:       900,
		TickSeconds: 0.667e-9,
	}
}

// Breakdown is channel-aggregate power in milliwatts.
type Breakdown struct {
	BackgroundMW float64
	ActPreMW     float64
	ReadMW       float64
	WriteMW      float64
	TotalMW      float64
}

// Estimate computes average power over a run: stats are the aggregate DRAM
// counters, elapsed the run length in ticks, channels the channel count.
func (m Model) Estimate(s dram.Stats, elapsedTicks int64, channels int) Breakdown {
	if elapsedTicks <= 0 {
		return Breakdown{}
	}
	seconds := float64(elapsedTicks) * m.TickSeconds
	var b Breakdown
	b.BackgroundMW = m.PbgMW * float64(channels)
	// nJ / s = 1e-9 W = 1e-6 mW.
	b.ActPreMW = float64(s.ACTs) * m.EactNJ / seconds * 1e-6
	b.ReadMW = float64(s.RDBursts) * m.ErdBurstNJ / seconds * 1e-6
	b.WriteMW = float64(s.WRBursts) * m.EwrBurstNJ / seconds * 1e-6
	b.TotalMW = b.BackgroundMW + b.ActPreMW + b.ReadMW + b.WriteMW
	return b
}
