// Package dramlat is the public façade of the warp-aware DRAM scheduling
// simulator: a reproduction of "Managing DRAM Latency Divergence in
// Irregular GPGPU Applications" (Chatterjee et al., SC 2014).
//
// The package wires together the cycle-level GPU model (internal/gpu), the
// benchmark generators (internal/workload) and the scheduler implementations
// (internal/memctrl for the baselines, internal/core for the paper's
// warp-aware WG / WG-M / WG-Bw / WG-W policies), and exposes one-call runs:
//
//	res, err := dramlat.Run(dramlat.RunSpec{Benchmark: "bfs", Scheduler: "wg-w"})
//	fmt.Println(res.IPC)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package dramlat

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"dramlat/internal/gddr5"
	"dramlat/internal/gpu"
	"dramlat/internal/guard"
	"dramlat/internal/power"
	"dramlat/internal/telemetry"
	"dramlat/internal/workload"
)

// RunSpec selects one simulation run.
type RunSpec struct {
	// Benchmark names a Table III workload (see Benchmarks).
	Benchmark string
	// Scheduler is one of Schedulers(): fcfs, wafcfs, frfcfs, gmc,
	// sbwas, wg, wg-m, wg-bw, wg-w.
	Scheduler string
	// Scale multiplies the per-warp work; 0 means 1.0 (full size).
	Scale float64
	// SMs/WarpsPerSM override the Table II machine when non-zero
	// (useful for quick runs and tests).
	SMs        int
	WarpsPerSM int
	// Seed defaults to 1.
	Seed int64

	// Ideal models of Fig 4.
	PerfectCoalescing bool
	ZeroDivergence    bool

	// SBWASAlpha sets the profiled bias for the sbwas comparator
	// (0 means 0.5; the paper profiles {0.25, 0.5, 0.75} per app).
	SBWASAlpha float64

	// Ablation disables one warp-aware design choice: "count-score",
	// "no-orphan" or "no-credits" (see gpu.Config.Ablation).
	Ablation string

	// WarpSched selects the SM warp scheduler: "" / "gto" or "lrr".
	WarpSched string

	// ReadQ / CmdQueueCap override the controller read-queue depth and
	// per-bank command-queue depth when non-zero (sensitivity sweeps:
	// the warp-aware gain grows with queue depth, since a deeper queue
	// gives the scheduler more reordering freedom).
	ReadQ       int
	CmdQueueCap int

	// Telemetry enables the event tracer / interval sampler for this run
	// (see internal/telemetry and RunTelemetry). Excluded from Canonical
	// and Hash: observability does not change simulation results, so
	// traced and untraced runs share a result-cache entry.
	Telemetry telemetry.Options `json:"-"`

	// Engine selects the simulation engine: "" / "event" (the exact
	// default) or "sampled". The field is excluded from Canonical and
	// Hash: "" and "event" name the same engine, and the sampled engine
	// is told apart by its Sampled block.
	Engine string `json:"-"`

	// Sampled configures the interval-sampling engine (Engine
	// "sampled"): a non-zero block selects sampled execution even when
	// Engine is empty. Unlike Engine these knobs are
	// hash-INCLUDED: the sampled engine's Results are approximate and
	// depend on the window parameters, so a sampled run must never
	// share a result-cache entry with an exact run (or with a sampled
	// run at different parameters). The zero block (exact engines)
	// marshals to nothing, keeping exact specs' hashes unchanged.
	Sampled SampledOptions `json:",omitzero"`

	// MaxCycles caps the simulated cycles when non-zero (default
	// gpu.DefaultConfig().MaxTicks). A run still live at the cap returns
	// partial Results with a *StallError (kind "cycle-budget"). Excluded
	// from Canonical and Hash: a completed run's Results are identical
	// under any sufficient cap, and capped runs error rather than cache.
	MaxCycles int64 `json:"-"`

	// StallCycles is the liveness watchdog's no-progress budget in sim
	// cycles: if nothing retires and no warp issues for this long the run
	// aborts with a *StallError (kind "no-progress") instead of spinning
	// to MaxCycles. 0 means gpu.DefaultStallCycles; negative disables the
	// progress check. Hash-excluded like MaxCycles.
	StallCycles int64 `json:"-"`

	// Deadline aborts the run with a *StallError (kind "deadline") once
	// the wall clock passes it. Zero means no deadline. Hash-excluded.
	Deadline time.Time `json:"-"`

	// Stop cancels the run externally: close the channel (or wire it to a
	// context's Done) and the engines return partial Results with a
	// *StallError (kind "stopped") at the next watchdog check.
	// Hash-excluded.
	Stop <-chan struct{} `json:"-"`

	// Chaos injects faults — components that stop answering, forced
	// panics — for robustness testing (see internal/guard/chaos). Faulted
	// runs exist to exercise the watchdog and recovery paths; they error
	// out and are never cached, so the field is hash-excluded.
	Chaos *Faults `json:"-"`
}

// TelemetryOptions re-exports telemetry.Options for callers configuring
// RunSpec.Telemetry without importing the internal package path.
type TelemetryOptions = telemetry.Options

// SampledOptions parameterizes the interval-sampling engine: runs
// alternate WindowCycles of full-fidelity measurement with
// FastForwardCycles advanced by statistical models calibrated from the
// window, after a WarmupCycles detailed prefix re-converges
// cache/queue state. Zero cycle counts select gpu.Default*Cycles.
// Seed perturbs the per-window RNG streams; together with the spec
// hash it makes sampled runs byte-identical across workers and runs.
type SampledOptions struct {
	WindowCycles      int64
	FastForwardCycles int64
	WarmupCycles      int64
	Seed              int64
}

// Enabled reports whether any sampling knob is set — a non-zero block
// selects the sampled engine even when RunSpec.Engine is empty.
func (o SampledOptions) Enabled() bool { return o != SampledOptions{} }

// DefaultSampled returns the sampled engine's default window parameters
// (the values a zero knob resolves to). Callers that need the Sampled
// block in a spec's JSON and hash — the Engine string itself is
// JSON-suppressed — materialize it with this instead of restating the
// defaults.
func DefaultSampled() SampledOptions {
	p := gpu.SampledConfig{}.WithDefaults()
	return SampledOptions{
		WindowCycles:      p.WindowCycles,
		FastForwardCycles: p.FastForwardCycles,
		WarmupCycles:      p.WarmupCycles,
	}
}

// IsSampled reports whether the spec selects the interval-sampling
// engine — via Engine "sampled" or a non-zero Sampled block — and will
// therefore produce approximate Results (Approximate=true). Sweep
// tooling uses it to refuse telemetry capture for sampled runs.
func (s RunSpec) IsSampled() bool {
	return s.Engine == gpu.EngineSampled || s.Sampled.Enabled()
}

// Canonical returns the spec with every zero-valued "use the default"
// field replaced by the default it resolves to, so that two specs that
// select the same simulation compare (and hash) equal. The defaults are
// derived from gpu.DefaultConfig and workload.DefaultParams rather than
// restated here, so they cannot drift.
func (s RunSpec) Canonical() RunSpec {
	cfg := Config(s)
	s.Scheduler = cfg.Scheduler
	s.SMs = cfg.NumSMs
	s.WarpsPerSM = cfg.WarpsPerSM
	s.SBWASAlpha = cfg.SBWASAlpha
	s.ReadQ = cfg.ReadQ
	s.CmdQueueCap = cfg.CmdQueueCap
	if s.WarpSched == "" {
		s.WarpSched = "gto"
	}
	p := workload.DefaultParams()
	if s.Scale <= 0 {
		s.Scale = p.Scale
	}
	if s.Seed == 0 {
		s.Seed = p.Seed
	}
	// A sampled run's results DO depend on the window parameters, so
	// the Sampled block is materialized (defaults filled) while the
	// Engine string itself stays hash-excluded below: Engine="sampled"
	// and an explicit default Sampled block canonicalize — and cache —
	// identically, and can never collide with an exact run, whose
	// Sampled block stays zero and marshals to nothing.
	if s.Engine == gpu.EngineSampled || s.Sampled.Enabled() {
		p := gpu.SampledConfig{
			WindowCycles:      s.Sampled.WindowCycles,
			FastForwardCycles: s.Sampled.FastForwardCycles,
			WarmupCycles:      s.Sampled.WarmupCycles,
		}.WithDefaults()
		s.Sampled.WindowCycles = p.WindowCycles
		s.Sampled.FastForwardCycles = p.FastForwardCycles
		s.Sampled.WarmupCycles = p.WarmupCycles
	}
	// Observability, engine choice and run-budget/cancellation knobs do
	// not affect the simulation a completed run performs: canonical specs
	// zero them all so such runs compare (and cache) equal.
	s.Telemetry = telemetry.Options{}
	s.Engine = ""
	s.MaxCycles = 0
	s.StallCycles = 0
	s.Deadline = time.Time{}
	s.Stop = nil
	s.Chaos = nil
	return s
}

// Validate checks the spec without running it, aggregating every
// problem into a single *ValidationError (one field per finding) so a
// bad spec is fixed in one round trip. Run performs the same checks.
func (s RunSpec) Validate() error {
	v := &guard.ValidationError{}
	if _, err := workload.ByName(s.Benchmark); err != nil {
		v.Addf("Benchmark", s.Benchmark, "%v", err)
	}
	if s.Scale < 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
		v.Addf("Scale", s.Scale, "must be a finite value >= 0 (0 selects the default)")
	}
	if s.SMs < 0 {
		v.Addf("SMs", s.SMs, "must be >= 0 (0 selects the default)")
	}
	if s.WarpsPerSM < 0 {
		v.Addf("WarpsPerSM", s.WarpsPerSM, "must be >= 0 (0 selects the default)")
	}
	if !(s.SBWASAlpha >= 0 && s.SBWASAlpha <= 1) { // rejects NaN too
		v.Addf("SBWASAlpha", s.SBWASAlpha, "must be in [0, 1]")
	}
	if s.ReadQ < 0 {
		v.Addf("ReadQ", s.ReadQ, "must be >= 0 (0 selects the default)")
	}
	if s.CmdQueueCap < 0 {
		v.Addf("CmdQueueCap", s.CmdQueueCap, "must be >= 0 (0 selects the default)")
	}
	if s.MaxCycles < 0 {
		v.Addf("MaxCycles", s.MaxCycles, "must be >= 0 (0 selects the default)")
	}
	if s.Sampled.Enabled() {
		switch s.Engine {
		case "", gpu.EngineSampled:
		default:
			v.Addf("Sampled", s.Sampled, "sampling parameters require Engine \"sampled\" (or empty), not %q", s.Engine)
		}
	}
	// The assembled config re-checks everything the spec maps onto
	// (scheduler name, warp scheduler, geometry, queue shapes).
	if err := Config(s).Validate(); err != nil {
		var ve *guard.ValidationError
		if errors.As(err, &ve) {
			v.Fields = append(v.Fields, ve.Fields...)
		} else {
			v.Addf("Config", nil, "%v", err)
		}
	}
	return v.Err()
}

// CanonicalJSON renders the canonicalized spec as deterministic JSON
// (struct field order is fixed, so the bytes are stable across runs).
func (s RunSpec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.Canonical())
}

// Hash returns a hex content hash of the canonicalized spec, suitable as
// a result-cache key: specs that run the same simulation share a hash.
func (s RunSpec) Hash() string {
	b, err := s.CanonicalJSON()
	if err != nil {
		// RunSpec contains only scalar fields; Marshal cannot fail.
		panic(fmt.Sprintf("dramlat: canonical JSON: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Results is the run digest (re-exported from internal/gpu).
type Results = gpu.Results

// Schedulers lists the supported policies in evaluation order.
func Schedulers() []string { return gpu.Schedulers() }

// WarpAwareSchedulers lists the paper's four cumulative policies.
func WarpAwareSchedulers() []string { return []string{"wg", "wg-m", "wg-bw", "wg-w"} }

// BenchmarkInfo describes one workload.
type BenchmarkInfo struct {
	Name      string
	Suite     string
	Irregular bool
	Desc      string
}

// Benchmarks lists every available workload (Table III irregular suite
// plus the Section VI-A regular suite).
func Benchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, b := range workload.All() {
		out = append(out, BenchmarkInfo{b.Name, b.Suite, b.Irregular, b.Desc})
	}
	return out
}

// IrregularNames returns the Table III irregular benchmark names.
func IrregularNames() []string {
	var out []string
	for _, b := range workload.Irregular() {
		out = append(out, b.Name)
	}
	return out
}

// RegularNames returns the Section VI-A regular benchmark names.
func RegularNames() []string {
	var out []string
	for _, b := range workload.Regular() {
		out = append(out, b.Name)
	}
	return out
}

// Config builds the gpu.Config for a spec (exposed for tools that need to
// tweak further).
func Config(spec RunSpec) gpu.Config {
	cfg := gpu.DefaultConfig()
	if spec.SMs > 0 {
		cfg.NumSMs = spec.SMs
	}
	if spec.WarpsPerSM > 0 {
		cfg.WarpsPerSM = spec.WarpsPerSM
	}
	if spec.Scheduler != "" {
		cfg.Scheduler = spec.Scheduler
	}
	if spec.SBWASAlpha > 0 {
		cfg.SBWASAlpha = spec.SBWASAlpha
	}
	cfg.PerfectCoalescing = spec.PerfectCoalescing
	cfg.ZeroDivergence = spec.ZeroDivergence
	cfg.Ablation = spec.Ablation
	cfg.WarpSched = spec.WarpSched
	if spec.ReadQ > 0 {
		cfg.ReadQ = spec.ReadQ
	}
	if spec.CmdQueueCap > 0 {
		cfg.CmdQueueCap = spec.CmdQueueCap
	}
	cfg.Telemetry = spec.Telemetry
	cfg.Engine = spec.Engine
	if spec.Sampled.Enabled() && cfg.Engine == "" {
		cfg.Engine = gpu.EngineSampled
	}
	if cfg.Engine == gpu.EngineSampled {
		cfg.Sampled = gpu.SampledConfig{
			WindowCycles:      spec.Sampled.WindowCycles,
			FastForwardCycles: spec.Sampled.FastForwardCycles,
			WarmupCycles:      spec.Sampled.WarmupCycles,
			Seed:              spec.Sampled.Seed,
		}.WithDefaults()
		// Sampled.Key (the RNG stream key) is the spec's own content
		// hash; RunTelemetry fills it after validation — Config cannot,
		// because Canonical calls Config and Hash calls Canonical.
	}
	if spec.MaxCycles > 0 {
		cfg.MaxTicks = spec.MaxCycles
	}
	cfg.StallCycles = spec.StallCycles
	cfg.Deadline = spec.Deadline
	cfg.Stop = spec.Stop
	cfg.Faults = spec.Chaos
	return cfg
}

// Telemetry bundles a run's observability output (re-exported from
// internal/telemetry): Tracer holds the event ring, Sampler the interval
// snapshots.
type Telemetry = telemetry.Telemetry

// Run executes one simulation. It never panics: an invalid spec
// returns a *ValidationError, a hung, capped or cancelled run returns
// partial Results with a *StallError, and any residual panic inside
// the simulator is recovered into a *RunError carrying the spec hash,
// phase, cycle and stack. Inspect failures with errors.As.
func Run(spec RunSpec) (Results, error) {
	res, _, err := RunTelemetry(spec)
	return res, err
}

// RunTelemetry executes one simulation and additionally returns its
// telemetry bundle — nil unless spec.Telemetry enables a subsystem. The
// bundle is returned even when the run errors out on a stall or budget,
// so a hung configuration can be diagnosed from its partial trace. It
// shares Run's no-panic contract.
func RunTelemetry(spec RunSpec) (res Results, tel *Telemetry, err error) {
	phase := guard.PhaseValidate
	var sys *gpu.System
	defer func() {
		if r := recover(); r != nil {
			cycle := int64(-1)
			if sys != nil {
				cycle = sys.Now()
				tel = sys.Tel
			}
			res = Results{}
			err = guard.Recovered(r, spec.Hash(), phase, cycle)
		}
	}()
	if err := spec.Validate(); err != nil {
		return Results{}, nil, err
	}
	phase = guard.PhaseBuild
	b, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return Results{}, nil, err
	}
	cfg := Config(spec)
	p := workload.DefaultParams()
	p.NumSMs = cfg.NumSMs
	p.WarpsPerSM = cfg.WarpsPerSM
	if spec.Scale > 0 {
		p.Scale = spec.Scale
	}
	if spec.Seed != 0 {
		p.Seed = spec.Seed
	}
	if cfg.Engine == gpu.EngineSampled {
		// Deterministic sampling: the per-window RNG streams key off the
		// spec's content hash, so identical sampled specs are
		// byte-identical to each other on any worker.
		cfg.Sampled.Key = spec.Hash()
	}
	sys, err = gpu.NewSystem(cfg, b.Build(p))
	if err != nil {
		return Results{}, nil, err
	}
	phase = guard.PhaseRun
	res, rerr := sys.Run()
	if rerr != nil {
		// %w keeps errors.As(*StallError) working under the context wrap.
		return res, sys.Tel, fmt.Errorf("dramlat: %s/%s: %w", spec.Benchmark, cfg.Scheduler, rerr)
	}
	return res, sys.Tel, nil
}

// MERBTable returns Table I for the default GDDR5 timings.
func MERBTable(maxBanks int) []int { return gddr5.Default().MERBTable(maxBanks) }

// Timing returns the Table II GDDR5 timing set.
func Timing() gddr5.Timing { return gddr5.Default() }

// PowerModel returns the GDDR5 power model used for the Section VI-B
// analysis.
func PowerModel() power.Model { return power.DefaultGDDR5() }

// EstimatePower evaluates the power model over a run's DRAM activity.
func EstimatePower(res Results) power.Breakdown {
	return PowerModel().Estimate(res.DRAM, res.Ticks, 6)
}
