package dramlat

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dramlat/internal/gpu"
	"dramlat/internal/guard/chaos"
)

// chaosSpec is the small machine the fault-injection tests run on.
func chaosSpec(sched string) RunSpec {
	return RunSpec{
		Benchmark: "bfs", Scheduler: sched,
		Scale: 0.05, SMs: 4, WarpsPerSM: 8,
		// Small budget so the watchdog trips within one or two of its
		// 64K-cycle checks instead of the default million.
		StallCycles: 20_000,
	}
}

// A partition that stops answering (the observable shape of a late
// NextWakeup contract violation) must trip the liveness watchdog on
// every scheduler — never hang, never run to the 50M-cycle default
// budget.
func TestChaosLateWakeupTripsWatchdog(t *testing.T) {
	for _, sched := range Schedulers() {
		t.Run(sched, func(t *testing.T) {
			spec := chaosSpec(sched)
			spec.Chaos = &Faults{
				WakeTarget: chaos.TargetPartition, WakeIndex: 0, WakeAfter: 200,
			}
			_, err := Run(spec)
			if err == nil {
				t.Fatal("comatose partition went unnoticed")
			}
			var stall *StallError
			if !errors.As(err, &stall) {
				t.Fatalf("want *StallError, got %T: %v", err, err)
			}
			if stall.Kind != StallNoProgress {
				t.Fatalf("kind = %q, want %q (err: %v)", stall.Kind, StallNoProgress, err)
			}
			if stall.Dump.LiveWarps() == 0 {
				t.Fatal("stall dump shows no live warps despite the hang")
			}
			if s := stall.Dump.String(); !strings.Contains(s, "stall dump") {
				t.Fatalf("dump not rendered: %q", s)
			}
		})
	}
}

// The same fault aimed at an SM: its warps never retire, so after the
// rest of the machine drains the progress vector flatlines.
func TestChaosLateSMWakeupTripsWatchdog(t *testing.T) {
	spec := chaosSpec("wg-w")
	spec.Chaos = &Faults{WakeTarget: chaos.TargetSM, WakeIndex: 1, WakeAfter: 200}
	_, err := Run(spec)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if stall.Kind != StallNoProgress {
		t.Fatalf("kind = %q", stall.Kind)
	}
	// The dump must finger SM 1 as still holding live warps.
	var sm1Live int
	for _, s := range stall.Dump.SMs {
		if s.ID == 1 {
			sm1Live = s.LiveWarps
		}
	}
	if sm1Live == 0 {
		t.Fatal("dump does not show the comatose SM's stranded warps")
	}
}

// A forced mid-run panic must come back as a *RunError carrying the
// spec hash, the run phase and the cycle — Run never panics.
func TestChaosForcedPanicRecovered(t *testing.T) {
	spec := chaosSpec("gmc")
	spec.Chaos = &Faults{PanicAtCycle: 500}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("forced panic vanished")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.SpecHash != spec.Hash() {
		t.Fatalf("RunError hash %s != spec hash %s", re.SpecHash, spec.Hash())
	}
	if re.Phase != "run" {
		t.Fatalf("phase %q", re.Phase)
	}
	if re.Cycle < 500 {
		t.Fatalf("cycle %d before the armed tick", re.Cycle)
	}
	if re.Stack == "" {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error message hides the panic: %v", err)
	}
}

// hangingSpec is a run that would spin forever (comatose partition)
// with the no-progress check disabled, so only the knob under test can
// end it. A run that finishes before the first watchdog check never
// consults deadline or Stop — that is by design (the budget guards
// runaway runs, it does not race healthy ones) — hence the forced hang.
func hangingSpec(sched string) RunSpec {
	spec := chaosSpec(sched)
	spec.StallCycles = -1
	spec.Chaos = &Faults{WakeTarget: chaos.TargetPartition, WakeIndex: 0, WakeAfter: 200}
	return spec
}

// An already-expired wall-clock deadline aborts a hung run at the first
// watchdog check with partial results instead of spinning to MaxTicks.
func TestDeadlineAborts(t *testing.T) {
	spec := hangingSpec("gmc")
	spec.Deadline = time.Now().Add(-time.Second)
	res, err := Run(spec)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if stall.Kind != StallDeadline {
		t.Fatalf("kind = %q", stall.Kind)
	}
	if res.Drained {
		t.Fatal("aborted run claims to have drained")
	}
}

// A closed Stop channel cancels the run the same way.
func TestStopChannelAborts(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	spec := hangingSpec("gmc")
	spec.Stop = stop
	_, err := Run(spec)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if stall.Kind != StallStopped {
		t.Fatalf("kind = %q", stall.Kind)
	}
}

// Exhausting MaxCycles returns a typed cycle-budget StallError with
// partial Results and a dump of the warps still live at the cap.
func TestMaxCyclesStallError(t *testing.T) {
	spec := RunSpec{
		Benchmark: "bfs", Scheduler: "wg-w",
		Scale: 0.05, SMs: 4, WarpsPerSM: 8,
		MaxCycles: 500,
	}
	res, err := Run(spec)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if stall.Kind != StallCycleBudget {
		t.Fatalf("kind = %q", stall.Kind)
	}
	if stall.Dump.LiveWarps() == 0 {
		t.Fatal("no live warps in the cycle-budget dump")
	}
	if res.Drained {
		t.Fatal("capped run claims to have drained")
	}
}

// Validation aggregates every bad field in one pass and never runs.
func TestRunSpecValidate(t *testing.T) {
	good := RunSpec{Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := RunSpec{Benchmark: "nope", Scheduler: "bogus", Scale: -1, ReadQ: -8}
	err := bad.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	if len(ve.Fields) < 4 {
		t.Fatalf("expected >= 4 field errors, got %d: %v", len(ve.Fields), err)
	}
	fields := map[string]bool{}
	for _, f := range ve.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"Benchmark", "Scheduler", "Scale", "ReadQ"} {
		if !fields[want] {
			t.Fatalf("field %s not reported in %v", want, err)
		}
	}
	// Run surfaces the same error without starting a simulation.
	if _, rerr := Run(bad); !errors.As(rerr, &ve) {
		t.Fatalf("Run did not return the validation error: %v", rerr)
	}

	// The retired fcfs and frfcfs policies are unknown schedulers.
	for _, sched := range []string{"fcfs", "frfcfs"} {
		retired := good
		retired.Scheduler = sched
		if err := retired.Validate(); !errors.As(err, &ve) || ve.Fields[0].Field != "Scheduler" {
			t.Fatalf("scheduler %q not reported as a Scheduler field error: %v", sched, err)
		}
	}
}

// TestEngineValidation: gpu.Config.Engine accepts only "" (the exact
// engine) and "sampled", the value RunSpec.Config sets for a non-zero
// Sampled block. Any other name, including the retired "event",
// "parallel" and "dense", is an Engine field error.
func TestEngineValidation(t *testing.T) {
	spec := RunSpec{Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	if got := Config(spec).Engine; got != "" {
		t.Fatalf("exact spec maps to engine %q", got)
	}
	spec.Sampled = DefaultSampled()
	if got := Config(spec).Engine; got != gpu.EngineSampled {
		t.Fatalf("sampled spec maps to engine %q", got)
	}
	for _, engine := range []string{"", gpu.EngineSampled} {
		cfg := Config(spec)
		cfg.Engine = engine
		if err := cfg.Validate(); err != nil {
			t.Fatalf("engine %q rejected: %v", engine, err)
		}
	}
	var ve *ValidationError
	for _, engine := range []string{"event", "quantum", "parallel", "dense"} {
		cfg := Config(spec)
		cfg.Engine = engine
		if err := cfg.Validate(); !errors.As(err, &ve) || ve.Fields[0].Field != "Engine" {
			t.Fatalf("engine %q not reported as an Engine field error: %v", engine, err)
		}
	}
}
