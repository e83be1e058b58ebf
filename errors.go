package dramlat

import (
	"dramlat/internal/guard"
	"dramlat/internal/guard/chaos"
)

// The failure vocabulary of the façade, re-exported from internal/guard
// so callers can errors.As against public names:
//
//	res, err := dramlat.Run(spec)
//	var stall *dramlat.StallError
//	if errors.As(err, &stall) {
//		fmt.Println(stall.Dump) // per-SM / per-channel forensic snapshot
//	}
//	var crash *dramlat.RunError
//	if errors.As(err, &crash) {
//		log.Printf("reproduce with spec %s:\n%s", crash.SpecHash, crash.Stack)
//	}

// ValidationError aggregates every invalid RunSpec/Config field found
// in one validation pass.
type ValidationError = guard.ValidationError

// FieldError is one entry of a ValidationError.
type FieldError = guard.FieldError

// RunError is a panic recovered at the Run boundary: the spec hash to
// reproduce it, the phase and cycle it died at, and the stack.
type RunError = guard.RunError

// StallError reports a run aborted by the liveness watchdog (kinds
// "no-progress", "cycle-budget", "deadline", "stopped") together with a
// StallDump of what every component was waiting on.
type StallError = guard.StallError

// StallDump is the diagnostic snapshot attached to a StallError.
type StallDump = guard.StallDump

// InvariantViolation is the typed panic value of hot-path model
// invariant checks; it surfaces as the Panic field of a RunError.
type InvariantViolation = guard.InvariantViolation

// AccuracyError reports a sampled run outside its configured error
// bounds against the exact event-engine reference (see CompareSampled):
// the offending metric, both values and the allowed deviation.
type AccuracyError = guard.AccuracyError

// Faults configures fault injection for chaos testing (RunSpec.Chaos).
type Faults = chaos.Faults

// Stall kinds found in StallError.Kind.
const (
	StallNoProgress  = guard.StallNoProgress
	StallCycleBudget = guard.StallCycleBudget
	StallDeadline    = guard.StallDeadline
	StallStopped     = guard.StallStopped
)
