// Package gddr5 models the timing of the Hynix H5GQ1H24AFR GDDR5 SGRAM used
// in the paper (Table II): a 64-bit channel built from two x32 devices
// operated in tandem as one rank, 16 banks organized as 4 bank groups, a
// 1.5 GHz command clock (tCK = 0.667 ns) and a 6 Gbps data interface.
//
// It also derives the Minimum Efficient Row Burst (MERB) table of Section
// IV-D from first principles, and the single-bank utilization model that
// motivates the MERB=31 entry.
package gddr5

import "math"

// TCK is the GDDR5 command-clock period in nanoseconds (Table II).
const TCK = 0.667

// Timing holds the GDDR5 timing constraints. The *NS fields are datasheet
// nanosecond values (Table II); the cycle-count fields are derived with
// ceil(ns/tCK) by Derive and are what the DRAM engine enforces.
type Timing struct {
	// Nanosecond parameters.
	TRCNS   float64 // ACT to ACT, same bank
	TRCDNS  float64 // ACT to column command
	TRPNS   float64 // PRE to ACT
	TCASNS  float64 // column read to data (CL)
	TRASNS  float64 // ACT to PRE
	TRRDNS  float64 // ACT to ACT, different banks
	TWTRNS  float64 // end of write data to read command
	TFAWNS  float64 // four-activate window
	TRTPNS  float64 // read to precharge
	TWRNS   float64 // end of write data to precharge (write recovery)
	TBURSTN float64 // data burst duration in ns (2 tCK)

	// Native cycle-count parameters (already in tCK units in Table II).
	TWL    int // write latency (4 tCK)
	TBURST int // burst duration (2 tCK)
	TRTRS  int // rank-to-rank switch (1 tCK)
	TCCDL  int // column-to-column, same bank group (3 tCK)
	TCCDS  int // column-to-column, different bank group (2 tCK)

	// Derived cycle counts (filled by Derive).
	TRC  int
	TRCD int
	TRP  int
	TCAS int
	TRAS int
	TRRD int
	TWTR int
	TFAW int
	TRTP int
	TWR  int
	// TRTW is the read-to-write turnaround: the gap required between a
	// read column command and a write column command so that read data
	// (at tCAS) and write data (at tWL) do not collide on the shared bus.
	// Derived as TCAS + TBURST + TRTRS - TWL.
	TRTW int
}

// Default returns the Table II timing set for the simulated Hynix 1Gb
// GDDR5 part, with the derived cycle counts filled in.
func Default() Timing {
	t := Timing{
		TRCNS:   40,
		TRCDNS:  12,
		TRPNS:   12,
		TCASNS:  12,
		TRASNS:  28,
		TRRDNS:  5.5,
		TWTRNS:  5,
		TFAWNS:  23,
		TRTPNS:  2,
		TWRNS:   12, // datasheet write recovery; not listed in Table II
		TBURSTN: 2 * TCK,
		TWL:     4,
		TBURST:  2,
		TRTRS:   1,
		TCCDL:   3,
		TCCDS:   2,
	}
	t.Derive()
	return t
}

// Cycles converts a nanosecond constraint to command-clock cycles,
// rounding up (a constraint must never be violated by rounding).
func Cycles(ns float64) int {
	return int(math.Ceil(ns/TCK - 1e-9))
}

// Derive fills the cycle-count fields from the nanosecond fields.
func (t *Timing) Derive() {
	t.TRC = Cycles(t.TRCNS)
	t.TRCD = Cycles(t.TRCDNS)
	t.TRP = Cycles(t.TRPNS)
	t.TCAS = Cycles(t.TCASNS)
	t.TRAS = Cycles(t.TRASNS)
	t.TRRD = Cycles(t.TRRDNS)
	t.TWTR = Cycles(t.TWTRNS)
	t.TFAW = Cycles(t.TFAWNS)
	t.TRTP = Cycles(t.TRTPNS)
	t.TWR = Cycles(t.TWRNS)
	t.TRTW = t.TCAS + t.TBURST + t.TRTRS - t.TWL
	if t.TRTW < 0 {
		t.TRTW = 0
	}
}

// RowMissPenaltyNS is the extra latency of a row-miss over a row-hit:
// tRP + tRCD (the paper's 36 ns vs 12 ns rationale behind the 3:1 score).
func (t Timing) RowMissPenaltyNS() float64 { return t.TRPNS + t.TRCDNS }

// MERBMax is the saturating value of the 5-bit per-bank row-hit counter
// (Section IV-D).
const MERBMax = 31

// MERB returns the Minimum Efficient Row Burst for the given number of
// banks with pending work: the number of 64B data bursts that must be
// transferred from other banks to hide the cost of one row miss
// (tRTP + tRP + tRCD), bounded below by the activate rotation rate
// max(tRRD, tFAW/4). With a single busy bank nothing can hide the miss, so
// the counter saturates at 31 (Section IV-D).
func (t Timing) MERB(banksWithWork int) int {
	if banksWithWork <= 1 {
		return MERBMax
	}
	missOverhead := t.TRTPNS + t.TRPNS + t.TRCDNS
	hide := missOverhead / (float64(banksWithWork-1) * t.TBURSTN)
	actGap := math.Max(t.TRRDNS, t.TFAWNS/4) / t.TBURSTN
	m := int(math.Ceil(math.Max(hide, actGap) - 1e-9))
	if m > MERBMax {
		m = MERBMax
	}
	if m < 1 {
		m = 1
	}
	return m
}

// MERBTable returns the MERB values for 1..maxBanks banks with pending
// work. For the default GDDR5 timings and maxBanks=16 this reproduces
// Table I, whose paper values the table1 experiment in
// internal/experiments holds and prints beside these.
func (t Timing) MERBTable(maxBanks int) []int {
	tab := make([]int, maxBanks)
	for b := 1; b <= maxBanks; b++ {
		tab[b-1] = t.MERB(b)
	}
	return tab
}

// SingleBankUtilization returns the data-bus utilization achievable when a
// single bank services n row-hit bursts per activate (the formula in
// Section IV-D):
//
//	util = tBURST*n / (tRCD + tBURST*n + (tRTP - tBURST + tCK) + tRP)
//
// For GDDR5 this is 1.33n / (1.33n + 25.33); at n = 31 it reaches ~62%.
func (t Timing) SingleBankUtilization(n int) float64 {
	num := t.TBURSTN * float64(n)
	den := t.TRCDNS + num + (t.TRTPNS - t.TBURSTN + TCK) + t.TRPNS
	return num / den
}
