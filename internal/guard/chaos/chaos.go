// Package chaos injects faults into the simulator for hardening tests:
// a component that stops ticking, such as an SM whose NextWakeup answer
// goes "too late" (so the liveness watchdog must trip instead of the
// run hanging), a forced
// panic mid-run (so the façade's recover must convert it into a
// RunError), and seeded on-disk corruption (so the sweep cache's
// checksum verification must quarantine the entry).
//
// A nil *Faults injects nothing and costs one nil check per hook, so
// production runs stay byte-identical with the chaos plumbing compiled
// in. Faults are excluded from RunSpec.Canonical/Hash for the same
// reason telemetry is: they never describe a different simulation,
// only a broken one.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
)

// Component kinds addressable by a wakeup fault.
const (
	TargetSM        = "sm"
	TargetPartition = "partition"
)

// Faults selects the injected failures for one run. The zero value (and
// nil) injects nothing.
type Faults struct {
	// WakeTarget/WakeIndex name one component ("sm" or "partition" plus
	// its index) that stops ticking from sim tick WakeAfter on, for
	// WakeDelay ticks (<= 0 means forever). For an SM under the
	// event-driven engine this models a late NextWakeup answer — exactly
	// what a wakeup-contract violation looks like from the outside. A
	// partition has no wakeup: the stepper ticks it every cycle, so the
	// fault simply gates its Tick. The test-only dense oracle
	// (gpu.System.RunDense) has no wakeups either, so there the fault
	// gates the SM's Tick too, and the oracle and the stepper exhibit the
	// identical hang for the watchdog to catch.
	WakeTarget string
	WakeIndex  int
	WakeAfter  int64
	WakeDelay  int64

	// PanicAtCycle forces a panic from inside the run loop when the
	// simulation reaches this cycle (0 disables), exercising the
	// façade's panic recovery end to end.
	PanicAtCycle int64

	// SampleDrift multiplies the sampled engine's calibrated models —
	// per-SM issue rates and synthesized divergence gaps — by this
	// factor during every fast-forward region (0 disables, 1 is a
	// no-op). A factor well away from 1 forces the sampled run outside
	// its error bounds so the distributional validator's AccuracyError
	// path can be exercised deterministically.
	SampleDrift float64
}

// DriftFactor returns the sampled-model bias to apply, 1 when no drift
// fault is armed.
func (f *Faults) DriftFactor() float64 {
	if f == nil || f.SampleDrift == 0 {
		return 1
	}
	return f.SampleDrift
}

// Asleep reports whether the wakeup fault holds component (kind, idx)
// comatose at tick now.
func (f *Faults) Asleep(kind string, idx int, now int64) bool {
	if f == nil || f.WakeTarget != kind || f.WakeIndex != idx || now < f.WakeAfter {
		return false
	}
	return f.WakeDelay <= 0 || now < f.WakeAfter+f.WakeDelay
}

// CheckPanic panics when the forced-panic fault is armed for this
// cycle. The run loop calls it once per visited tick.
func (f *Faults) CheckPanic(now int64) {
	if f != nil && f.PanicAtCycle > 0 && now >= f.PanicAtCycle {
		f.PanicAtCycle = 0 // one shot: the recover path must not re-trip
		panic(fmt.Sprintf("chaos: forced panic at cycle %d", now))
	}
}

// CorruptFile flips eight deterministically seeded bits of the file in
// place, simulating torn or bit-rotten storage for cache-quarantine
// tests. The file must be non-empty.
func CorruptFile(path string, seed int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("chaos: %s is empty", path)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		pos := rng.Intn(len(b))
		b[pos] ^= 1 << rng.Intn(8)
	}
	return os.WriteFile(path, b, 0o644)
}
