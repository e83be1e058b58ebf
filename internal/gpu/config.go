// Package gpu assembles the full system of Table II: 30 SIMT cores, a
// crossbar, six memory partitions (L2 slice + GDDR5 channel + memory
// controller), and the coordination network, driven by one global clock
// (1 tick = 1 GDDR5 command cycle, 0.667 ns).
package gpu

import (
	"time"

	"dramlat/internal/gddr5"
	"dramlat/internal/guard"
	"dramlat/internal/guard/chaos"
	"dramlat/internal/telemetry"
)

// Config collects every simulation parameter. DefaultConfig reproduces
// Table II.
type Config struct {
	// Cores.
	NumSMs     int
	WarpsPerSM int
	WarpSize   int
	L1Lat      int64
	// WarpSched selects the SM warp scheduler: "gto" (default,
	// greedy-then-oldest) or "lrr" (loose round-robin).
	WarpSched string

	// Caches.
	L1SizeBytes int
	L1Ways      int
	L1MSHRs     int
	L2SliceSize int
	L2Ways      int
	L2MSHRs     int
	L2Lat       int64
	LineBytes   int

	// Interconnect.
	XbarLat     int64
	XbarQueue   int
	L2PipeDepth int

	// Memory system.
	NumChannels   int
	NumBanks      int
	BankGroups    int
	CmdQueueCap   int
	ReadQ         int
	WriteQ        int
	HighWM        int
	LowWM         int
	WriteAgeDrain int64
	Timing        gddr5.Timing

	// Scheduling policy (see Schedulers).
	Scheduler  string
	SBWASAlpha float64
	CoordDelay int64
	AgeThresh  int64
	// ATLASQuantum is the rank-update period of the ATLAS comparator.
	ATLASQuantum int64
	// EnableRefresh turns on all-bank refresh (tREFI ~3.9us, tRFC
	// ~107ns for the 1Gb part). Off by default: the paper does not model
	// it and it affects every scheduler identically.
	EnableRefresh bool
	RefreshTicks  int64 // tREFI in ticks (default 5850 ~ 3.9us)
	TRFCTicks     int64 // tRFC in ticks (default 160 ~ 107ns)

	// Ideal models (Fig 4).
	PerfectCoalescing bool
	ZeroDivergence    bool

	// Ablation selects a design-choice ablation for the warp-aware
	// schedulers: "" (none), "count-score" (rank by request count, not
	// bank-aware completion time), "no-orphan" (disable IV-D orphan
	// control), "no-credits" (drop the L2 group-complete credits and
	// rely on the age fallback alone).
	Ablation string

	// MaxTicks bounds the simulation. Exhausting it with warps still
	// live aborts the run with a *guard.StallError (cycle-budget kind).
	MaxTicks int64

	// StallCycles is the liveness watchdog's no-progress budget: if no
	// instruction issues and no request is accepted or retired anywhere
	// in the system for this many consecutive simulation cycles while
	// warps are still live, Run aborts with a *guard.StallError carrying
	// a diagnostic dump instead of spinning to MaxTicks. 0 selects
	// DefaultStallCycles; negative disables the watchdog.
	StallCycles int64

	// Deadline, when non-zero, is a wall-clock bound checked at watchdog
	// cadence; exceeding it aborts with a deadline StallError.
	Deadline time.Time

	// Stop, when non-nil, cancels the run when closed (checked at
	// watchdog cadence); the run aborts with a stopped StallError.
	Stop <-chan struct{}

	// Faults injects chaos-test failures (late wakeups, forced panics).
	// nil — the production value — injects nothing and keeps results
	// byte-identical to a build without the hooks.
	Faults *chaos.Faults

	// Engine selects the simulation engine: "" or EngineEvent for the
	// exact engine (the default), EngineSampled for the approximate one.
	// The event engine's Results are byte-identical to ticking every
	// component every cycle, which the dense oracle System.RunDense,
	// called only by tests, checks (TestEventDrivenMatchesDense).
	Engine string

	// Sampled configures EngineSampled's interval sampling. Unlike
	// Engine these parameters DO change Results (they select
	// which regions run detailed vs modeled), so the façade includes
	// them in the content hash.
	Sampled SampledConfig

	// Telemetry configures the event tracer and interval sampler. The
	// zero value disables both; disabled telemetry costs one nil-check
	// branch per instrumentation site (see BenchmarkRunTelemetryOff).
	Telemetry telemetry.Options
}

// Engine names for Config.Engine.
const (
	// EngineEvent is the default exact engine: it steps every tick and
	// ticks only the components whose next wakeup has come due.
	EngineEvent = "event"
	// EngineSampled is the interval-sampling engine: short full-fidelity
	// measurement windows on the event engine's stepper alternate with
	// fast-forward regions advanced by statistical models calibrated
	// from the preceding window. Results are approximate — validated
	// distributionally against the event engine, never byte-identical
	// (see DESIGN.md "Sampled engine").
	EngineSampled = "sampled"
)

// Engines lists the selectable engine names.
func Engines() []string {
	return []string{EngineEvent, EngineSampled}
}

// SampledConfig parameterizes the interval-sampling engine. All cycle
// counts are in ticks; zero fields take the Default*Cycles values.
type SampledConfig struct {
	// WindowCycles is the length of each full-fidelity measurement
	// window the statistical models are calibrated from.
	WindowCycles int64
	// FastForwardCycles is the length of each modeled region between
	// windows: warp progress advances at the calibrated issue rates and
	// the skipped memory traffic is injected statistically.
	FastForwardCycles int64
	// WarmupCycles is the detailed prefix run after each fast-forward
	// before the next measurement window, re-converging cache, row
	// buffer and queue state; it is excluded from calibration.
	WarmupCycles int64
	// Seed perturbs the per-window RNG streams; same (Key, Seed) means
	// byte-identical sampled runs on any worker.
	Seed int64
	// Key is the RNG stream key — the façade sets it to the spec's
	// content hash so sampled runs are reproducible per spec.
	Key string
}

// Default interval-sampling parameters: an 8:1 modeled-to-detailed
// ratio with windows long enough to complete thousands of warp-groups
// per calibration at Table II scale, and warm-ups long enough (with
// the settle prefix and the jump's phase-jitter re-seeding) to
// re-converge warp-phase dispersion — the slow mode behind the
// divergence-gap distribution. Shorter windows censor the gap tail;
// shorter warm-ups bias every percentile low. Raise
// FastForwardCycles for more speed on long runs; the accuracy/speed
// trade is measured in EXPERIMENTS.md.
const (
	DefaultWindowCycles      = 8000
	DefaultFastForwardCycles = 64000
	DefaultWarmupCycles      = 8000
)

// WithDefaults fills zero fields with the Default*Cycles values.
func (p SampledConfig) WithDefaults() SampledConfig {
	if p.WindowCycles == 0 {
		p.WindowCycles = DefaultWindowCycles
	}
	if p.FastForwardCycles == 0 {
		p.FastForwardCycles = DefaultFastForwardCycles
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = DefaultWarmupCycles
	}
	return p
}

// Schedulers lists the supported policy names in evaluation order: the
// simple baselines, the throughput-optimized GMC, the comparators from
// Section VI-C (SBWAS, WAFCFS via the fcfs+ordered-interconnect pair,
// PAR-BS and ATLAS from the CPU-scheduler discussion), the paper's four
// warp-aware policies, and the shared-data extension from the conclusion.
func Schedulers() []string {
	return []string{"fcfs", "wafcfs", "frfcfs", "gmc", "sbwas", "parbs", "atlas",
		"wg", "wg-m", "wg-bw", "wg-w", "wg-sh"}
}

// DefaultConfig returns the Table II configuration with the GMC baseline
// scheduler.
func DefaultConfig() Config {
	return Config{
		NumSMs:     30,
		WarpsPerSM: 32, // 1024 threads / 32-thread warps
		WarpSize:   32,
		L1Lat:      20,

		L1SizeBytes: 32 << 10,
		L1Ways:      8,
		L1MSHRs:     64,
		L2SliceSize: 128 << 10,
		L2Ways:      16,
		L2MSHRs:     64,
		L2Lat:       40,
		LineBytes:   128,

		XbarLat:     20,
		XbarQueue:   8,
		L2PipeDepth: 8,

		NumChannels:   6,
		NumBanks:      16,
		BankGroups:    4,
		CmdQueueCap:   4,
		ReadQ:         64,
		WriteQ:        64,
		HighWM:        32,
		LowWM:         16,
		WriteAgeDrain: 4096,
		Timing:        gddr5.Default(),

		Scheduler:    "gmc",
		SBWASAlpha:   0.5,
		CoordDelay:   4,
		AgeThresh:    2000,
		ATLASQuantum: 50_000,
		RefreshTicks: 5850,
		TRFCTicks:    160,

		MaxTicks: 50_000_000,
	}
}

// DefaultStallCycles is the watchdog's no-progress budget when
// Config.StallCycles is zero: 1M command cycles (~0.67ms of sim time)
// with zero system-wide progress is far beyond any legal quiet period
// (the longest legitimate gaps — a full write drain against busy banks —
// retire bursts every few hundred cycles).
const DefaultStallCycles = 1_000_000

// Sanity ceilings for Validate: far above Table II and every sweep this
// repo runs, low enough that a corrupted or fuzzed config fails fast
// instead of attempting a multi-terabyte allocation.
const (
	maxSMs        = 4096
	maxWarpsPerSM = 2048
	maxChannels   = 1024
	maxBanks      = 4096
)

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// validateCache checks the set-associative geometry cache.New requires,
// so a bad config is a field-level error here instead of a constructor
// panic downstream.
func validateCache(v *guard.ValidationError, field string, sizeBytes, lineBytes, ways, mshrs int) {
	if ways <= 0 {
		v.Addf(field+"Ways", ways, "must be positive")
		return
	}
	lines := 0
	if lineBytes > 0 {
		lines = sizeBytes / lineBytes
	}
	if lines <= 0 || lines%ways != 0 {
		v.Addf(field+"Size", sizeBytes, "size/line/ways mismatch: %d lines must be positive and divisible by %d ways", lines, ways)
		return
	}
	if !powerOfTwo(lines / ways) {
		v.Addf(field+"Size", sizeBytes, "set count %d must be a power of two", lines/ways)
	}
	if mshrs <= 0 {
		v.Addf(field+"MSHRs", mshrs, "must be positive")
	}
}

// Validate checks every constructor precondition of the assembled
// system and returns a *guard.ValidationError naming each offending
// field, so NewSystem (and therefore dramlat.Run) rejects a bad config
// with a structured error before any cycle runs instead of panicking
// out of internal/addrmap, internal/cache or internal/dram.
func (c Config) Validate() error {
	v := &guard.ValidationError{}
	switch {
	case c.NumSMs <= 0:
		v.Addf("NumSMs", c.NumSMs, "must be positive")
	case c.NumSMs > maxSMs:
		v.Addf("NumSMs", c.NumSMs, "exceeds sanity ceiling %d", maxSMs)
	}
	switch {
	case c.WarpsPerSM <= 0:
		v.Addf("WarpsPerSM", c.WarpsPerSM, "must be positive")
	case c.WarpsPerSM > maxWarpsPerSM:
		v.Addf("WarpsPerSM", c.WarpsPerSM, "exceeds sanity ceiling %d", maxWarpsPerSM)
	}
	switch {
	case c.NumChannels <= 0:
		v.Addf("NumChannels", c.NumChannels, "must be positive")
	case c.NumChannels > maxChannels:
		v.Addf("NumChannels", c.NumChannels, "exceeds sanity ceiling %d", maxChannels)
	}
	// addrmap.New and dram.NewChannel preconditions.
	switch {
	case !powerOfTwo(c.NumBanks):
		v.Addf("NumBanks", c.NumBanks, "must be a positive power of two")
	case c.NumBanks > maxBanks:
		v.Addf("NumBanks", c.NumBanks, "exceeds sanity ceiling %d", maxBanks)
	case c.BankGroups <= 0 || c.NumBanks%c.BankGroups != 0:
		v.Addf("BankGroups", c.BankGroups, "banks (%d) must divide evenly into groups", c.NumBanks)
	}
	if !powerOfTwo(c.LineBytes) {
		v.Addf("LineBytes", c.LineBytes, "must be a positive power of two")
	} else {
		validateCache(v, "L1", c.L1SizeBytes, c.LineBytes, c.L1Ways, c.L1MSHRs)
		validateCache(v, "L2", c.L2SliceSize, c.LineBytes, c.L2Ways, c.L2MSHRs)
	}
	if c.CmdQueueCap <= 0 {
		v.Addf("CmdQueueCap", c.CmdQueueCap, "must be positive")
	}
	if c.ReadQ <= 0 {
		v.Addf("ReadQ", c.ReadQ, "must be positive")
	}
	if c.WriteQ <= 0 {
		v.Addf("WriteQ", c.WriteQ, "must be positive")
	}
	if c.HighWM > c.WriteQ || c.LowWM >= c.HighWM {
		v.Addf("HighWM", c.HighWM, "bad write watermarks high %d / low %d (cap %d)", c.HighWM, c.LowWM, c.WriteQ)
	}
	if c.XbarQueue <= 0 {
		v.Addf("XbarQueue", c.XbarQueue, "must be positive")
	}
	if c.L2PipeDepth <= 0 {
		v.Addf("L2PipeDepth", c.L2PipeDepth, "must be positive")
	}
	if c.WarpSched != "" && c.WarpSched != "gto" && c.WarpSched != "lrr" {
		v.Addf("WarpSched", c.WarpSched, "unknown warp scheduler (want gto or lrr)")
	}
	ok := false
	for _, s := range Schedulers() {
		if s == c.Scheduler {
			ok = true
			break
		}
	}
	if !ok {
		v.Addf("Scheduler", c.Scheduler, "unknown scheduler (see Schedulers())")
	}
	if c.MaxTicks <= 0 {
		v.Addf("MaxTicks", c.MaxTicks, "must be positive")
	}
	switch c.Engine {
	case "", EngineEvent:
	case EngineSampled:
		if c.Sampled.WindowCycles < 0 {
			v.Addf("Sampled.WindowCycles", c.Sampled.WindowCycles, "must be non-negative (0 = default)")
		}
		if c.Sampled.FastForwardCycles < 0 {
			v.Addf("Sampled.FastForwardCycles", c.Sampled.FastForwardCycles, "must be non-negative (0 = default)")
		}
		if c.Sampled.WarmupCycles < 0 {
			v.Addf("Sampled.WarmupCycles", c.Sampled.WarmupCycles, "must be non-negative (0 = default)")
		}
	default:
		v.Addf("Engine", c.Engine, "unknown engine (want event or sampled)")
	}
	return v.Err()
}
