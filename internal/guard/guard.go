// Package guard is the simulation-hardening vocabulary shared by the
// façade, the GPU engines and the sweep stack: structured field-level
// validation errors, the RunError a recovered panic is converted into,
// the StallError the liveness watchdog trips with, and the diagnostic
// StallDump that replaces a silent hang with an actionable snapshot.
//
// The package sits below every simulator package (it imports nothing
// from the repo), so internal/dram, internal/memctrl and internal/gpu
// can all speak the same failure types without cycles; the public
// façade re-exports them as dramlat.RunError / dramlat.StallError /
// dramlat.ValidationError for errors.As.
package guard

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
)

// Run phases recorded in RunError.Phase: where in the façade pipeline a
// panic was recovered.
const (
	PhaseValidate = "validate" // spec/config validation
	PhaseBuild    = "build"    // workload generation + system assembly
	PhaseRun      = "run"      // the simulation loop itself
)

// FieldError reports one invalid configuration field.
type FieldError struct {
	Field string // the Config/RunSpec field name, e.g. "NumBanks"
	Value any    // the offending value
	Msg   string // what the constraint is
}

func (e FieldError) Error() string {
	return fmt.Sprintf("%s = %v: %s", e.Field, e.Value, e.Msg)
}

// ValidationError aggregates every field-level problem found in one
// validation pass, so a caller fixes a bad config in one round trip
// instead of one field per run.
type ValidationError struct {
	Fields []FieldError
}

func (e *ValidationError) Error() string {
	if len(e.Fields) == 1 {
		return "invalid config: " + e.Fields[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invalid config (%d problems):", len(e.Fields))
	for _, f := range e.Fields {
		b.WriteString("\n  ")
		b.WriteString(f.Error())
	}
	return b.String()
}

// Addf records one field problem.
func (e *ValidationError) Addf(field string, value any, format string, args ...any) {
	e.Fields = append(e.Fields, FieldError{Field: field, Value: value, Msg: fmt.Sprintf(format, args...)})
}

// Err returns the collected error, or nil when every check passed.
func (e *ValidationError) Err() error {
	if len(e.Fields) == 0 {
		return nil
	}
	return e
}

// RunError is a panic recovered at the façade boundary: dramlat.Run
// never panics, it returns one of these instead, carrying enough to
// reproduce (spec hash), locate (phase + cycle) and debug (panic value
// + stack) the failure.
type RunError struct {
	SpecHash string // RunSpec.Hash() of the run that died
	Phase    string // Phase* constant: where the panic escaped
	Cycle    int64  // simulation cycle at recovery (-1 before the loop)
	Panic    any    // the recovered value
	Stack    string // debug.Stack() at recovery
}

func (e *RunError) Error() string {
	return fmt.Sprintf("dramlat: panic during %s at cycle %d (spec %.12s): %v",
		e.Phase, e.Cycle, e.SpecHash, e.Panic)
}

// Recovered converts a recovered panic value into a RunError, capturing
// the stack at the call site. An InvariantViolation panic keeps its
// typed value so callers can distinguish "model invariant broke" from
// an arbitrary crash.
func Recovered(r any, specHash, phase string, cycle int64) *RunError {
	return &RunError{
		SpecHash: specHash, Phase: phase, Cycle: cycle,
		Panic: r, Stack: string(debug.Stack()),
	}
}

// InvariantViolation is the typed panic value of hot-path invariant
// checks (Invariantf): a state the simulation model promises cannot
// happen. These deliberately stay panics — the simulation cannot
// continue — but the façade's recover converts them into a RunError
// whose Panic field is this type.
type InvariantViolation struct {
	Msg string
}

func (e InvariantViolation) Error() string { return "invariant violated: " + e.Msg }

// Invariantf panics with a typed InvariantViolation. Use it instead of
// a bare panic() for model invariants on the simulation hot path.
func Invariantf(format string, args ...any) {
	panic(InvariantViolation{Msg: fmt.Sprintf(format, args...)})
}

// AccuracyError reports that a sampled (statistically fast-forwarded)
// run landed outside its configured error bounds against the exact
// event-engine reference. Metric names the offending aggregate ("ipc",
// "gap_p50", "gap_p90", "gap_p99"), Bound the allowed absolute
// deviation the check derived from the relative/absolute bound pair.
// Unlike ValidationError this is not a spec problem: the spec ran to
// completion, but its statistical model did not hold for this workload
// at these window parameters.
type AccuracyError struct {
	Metric  string  // which aggregate drifted
	Sampled float64 // the sampled engine's estimate
	Exact   float64 // the event engine's reference value
	Bound   float64 // allowed absolute deviation
}

func (e *AccuracyError) Error() string {
	return fmt.Sprintf("dramlat: sampled run outside error bounds: %s = %.4g vs exact %.4g (|Δ| %.4g > allowed %.4g)",
		e.Metric, e.Sampled, e.Exact, math.Abs(e.Sampled-e.Exact), e.Bound)
}

// Stall kinds recorded in StallError.Kind.
const (
	StallNoProgress  = "no-progress"  // watchdog: nothing retired or issued for Budget cycles
	StallCycleBudget = "cycle-budget" // MaxTicks exhausted with warps still live
	StallDeadline    = "deadline"     // wall-clock deadline exceeded
	StallStopped     = "stopped"      // external cancellation (Stop channel)
)

// StallError is the liveness watchdog's verdict: the simulation was
// still live but made no forward progress (or ran out of its cycle or
// wall-clock budget), so the run was aborted with a diagnostic dump
// instead of hanging.
type StallError struct {
	Kind   string // Stall* constant
	Cycle  int64  // simulation cycle at the trip
	Budget int64  // the exhausted budget (cycles; 0 for deadline/stopped)
	Dump   StallDump
}

func (e *StallError) Error() string {
	switch e.Kind {
	case StallNoProgress:
		return fmt.Sprintf("dramlat: stalled at cycle %d: no request retired and no warp issued for %d cycles (%d blocked warps)",
			e.Cycle, e.Budget, e.Dump.BlockedWarps())
	case StallCycleBudget:
		return fmt.Sprintf("dramlat: cycle budget exhausted: %d warps still live at MaxTicks %d",
			e.Dump.LiveWarps(), e.Budget)
	case StallDeadline:
		return fmt.Sprintf("dramlat: wall-clock deadline exceeded at cycle %d", e.Cycle)
	case StallStopped:
		return fmt.Sprintf("dramlat: run stopped at cycle %d", e.Cycle)
	}
	return fmt.Sprintf("dramlat: stalled at cycle %d (%s)", e.Cycle, e.Kind)
}

// StallDump is the forensic snapshot attached to a StallError: enough
// per-SM, per-channel and per-bank state to see which component went
// quiet and what everyone else was waiting on.
type StallDump struct {
	Cycle    int64
	SMs      []SMState
	Channels []ChannelState

	// Crossbar wakeup minima: the earliest tick any partition-bound
	// request / SM-bound response becomes deliverable (guard.Never when
	// none is queued).
	XbarReqWake  int64
	XbarRespWake int64
}

// Never mirrors the simulator's wakeup sentinel (dram.Never) without an
// import: a component reporting this is quiescent until external input.
const Never int64 = 1 << 62

// SMState is one SM's row of the blocked-warp table.
type SMState struct {
	ID          int
	LiveWarps   int   // not yet retired
	Blocked     int   // live warps blocked on a load
	ReplayQueue int   // LSU requests awaiting crossbar injection
	NextWakeup  int64 // the engine's recorded wakeup (best-effort in dense mode)
}

// ChannelState is one memory partition's occupancy snapshot.
type ChannelState struct {
	Channel      int
	ReadQ        int // controller read-queue occupancy
	WriteQ       int // controller write-queue occupancy
	SchedPending int // reads held by the transaction scheduler
	Draining     bool
	L2Pipe       int // L2 lookup-pipeline occupancy
	EvictQ       int // dirty write-backs awaiting the write queue
	CoordPending int // undelivered coordination messages (wg-m and up)
	NextWakeup   int64
	Banks        []BankState
}

// BankState is one DRAM bank's command-queue snapshot.
type BankState struct {
	Bank       int
	QueuedTxns int
	OpenRow    int // -1 when precharged
	SchedRow   int // shadow row the queue tail targets
}

// LiveWarps totals the not-yet-retired warps across SMs.
func (d StallDump) LiveWarps() int {
	n := 0
	for _, s := range d.SMs {
		n += s.LiveWarps
	}
	return n
}

// BlockedWarps totals the warps blocked on outstanding loads.
func (d StallDump) BlockedWarps() int {
	n := 0
	for _, s := range d.SMs {
		n += s.Blocked
	}
	return n
}

func fmtWake(w int64) string {
	if w >= Never {
		return "never"
	}
	return fmt.Sprintf("%d", w)
}

// String renders the dump as a human-readable report: the per-SM
// blocked-warp table, per-channel queue occupancies and the per-bank
// DRAM state, with fully idle rows elided.
func (d StallDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall dump @ cycle %d: %d live warps (%d blocked), xbar req wake %s resp wake %s\n",
		d.Cycle, d.LiveWarps(), d.BlockedWarps(), fmtWake(d.XbarReqWake), fmtWake(d.XbarRespWake))
	b.WriteString("  sm    live blocked replay wakeup\n")
	for _, s := range d.SMs {
		if s.LiveWarps == 0 && s.ReplayQueue == 0 {
			continue
		}
		fmt.Fprintf(&b, "  sm%-3d %4d %7d %6d %s\n", s.ID, s.LiveWarps, s.Blocked, s.ReplayQueue, fmtWake(s.NextWakeup))
	}
	b.WriteString("  chan  readq writeq sched pipe evict coord drain wakeup\n")
	for _, c := range d.Channels {
		fmt.Fprintf(&b, "  ch%-3d %5d %6d %5d %4d %5d %5d %5v %s\n",
			c.Channel, c.ReadQ, c.WriteQ, c.SchedPending, c.L2Pipe, c.EvictQ, c.CoordPending, c.Draining, fmtWake(c.NextWakeup))
		for _, bank := range c.Banks {
			if bank.QueuedTxns == 0 {
				continue
			}
			fmt.Fprintf(&b, "        bank%-2d txns %d open %d sched %d\n",
				bank.Bank, bank.QueuedTxns, bank.OpenRow, bank.SchedRow)
		}
	}
	return b.String()
}
