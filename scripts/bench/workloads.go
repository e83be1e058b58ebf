package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"dramlat"
	"dramlat/internal/gpu"
	"dramlat/internal/sweep"
	"dramlat/internal/workload"
)

// opts are one invocation's settings.
type opts struct {
	Seed    int64
	Seconds float64 // measurement budget; at least minPasses run regardless
	Trace   bool
	// Smoke shrinks every workload to a 4x4 machine and a twentieth of
	// its work, so the test suite can run them all in seconds.
	Smoke bool
}

// sized returns spec as this invocation runs it: with the seed, and
// shrunk for a smoke run.
func (o opts) sized(spec dramlat.RunSpec) dramlat.RunSpec {
	spec.Seed = o.Seed
	if o.Smoke {
		spec.Scale *= 0.05
		spec.SMs = 4
		if spec.WarpsPerSM == 0 {
			spec.WarpsPerSM = 4
		}
	}
	return spec
}

// workloads are the benchmark's inputs, in report order. Why each exists
// is recorded in BENCHMARK.json and README.md.
var workloads = []struct {
	name string
	make func() workloadRunner
}{
	{"spmv-wgw", func() workloadRunner {
		return &single{spec: dramlat.RunSpec{Benchmark: "spmv", Scheduler: "wg-w", Scale: 0.25}}
	}},
	{"ss-writes", func() workloadRunner {
		return &single{spec: dramlat.RunSpec{Benchmark: "SS", Scheduler: "wg-w", Scale: 0.4}}
	}},
	{"bfs-lowocc", func() workloadRunner {
		return &single{spec: dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc", Scale: 10, SMs: 120, WarpsPerSM: 1}}
	}},
	{"spmv-sampled", func() workloadRunner {
		return &single{spec: dramlat.RunSpec{Benchmark: "spmv", Scheduler: "gmc", Scale: 1, Sampled: dramlat.DefaultSampled()}}
	}},
	{"fig8-sweep", func() workloadRunner { return &fig8Sweep{} }},
}

// workloadRunner is one workload's measurement protocol.
type workloadRunner interface {
	// setup does the untimed work the checks need before any pass.
	setup(o opts) error
	// pass runs one timed repetition.
	pass(o opts) (*pass, error)
	// finish runs the workload's own checks once the passes are done and
	// returns them with its accuracy metrics.
	finish(o opts, first *pass) ([]check, map[string]float64)
}

// simRun is one simulation, timed layer by layer from outside.
type simRun struct {
	Results dramlat.Results
	Engine  gpu.EngineStats
	Program int64 // instructions in the built workload
	Build   time.Duration
	NewSys  time.Duration
	Run     time.Duration
}

// pass is one timed repetition of a workload: one simulation, or one cold
// sweep over the Fig 8 grid.
type pass struct {
	runs    []simRun        // in spec order
	wall    time.Duration   // the whole pass as a user waits for it
	busy    []time.Duration // sweep: runner time per spec
	workers int
	traced  bool
	mem     runtime.MemStats // deltas over the pass: Mallocs, NumGC, TotalAlloc
	prof    *cpuProfile      // traced passes only
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkOf(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

// simulate builds and runs spec through the same public calls dramlat.Run
// makes, timing each: the workload build, system assembly and the engine
// run. fig8-sweep checks that its Results equal dramlat.Run's.
func simulate(spec dramlat.RunSpec) (simRun, error) {
	var r simRun
	if err := spec.Validate(); err != nil {
		return r, err
	}
	b, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return r, err
	}
	cfg := dramlat.Config(spec)
	if cfg.Engine == gpu.EngineSampled {
		cfg.Sampled.Key = spec.Hash()
	}
	p := workload.DefaultParams()
	p.NumSMs, p.WarpsPerSM = cfg.NumSMs, cfg.WarpsPerSM
	if spec.Scale > 0 {
		p.Scale = spec.Scale
	}
	if spec.Seed != 0 {
		p.Seed = spec.Seed
	}

	t0 := time.Now()
	w := b.Build(p)
	t1 := time.Now()
	sys, err := gpu.NewSystem(cfg, w)
	t2 := time.Now()
	r.Build, r.NewSys = t1.Sub(t0), t2.Sub(t1)
	if err != nil {
		return r, err
	}
	r.Results, err = sys.Run()
	r.Run = time.Since(t2)
	r.Engine = sys.Engine
	for _, warps := range w.Programs {
		for _, prog := range warps {
			r.Program += int64(len(prog))
		}
	}
	return r, err
}

// validate checks what every completed simulation must satisfy.
func (r simRun) validate() error {
	if !r.Results.Drained {
		return errors.New("run did not drain")
	}
	if r.Results.Instr != r.Program {
		return fmt.Errorf("retired %d of %d instructions", r.Results.Instr, r.Program)
	}
	return nil
}

func resultsJSON(r dramlat.Results) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // Results holds only numbers, strings and a pointer to numbers
	}
	return b
}

// digest is the results_sha256 of a pass: SHA-256 over its runs' Results
// as JSON, so two commits can be shown to simulate identically.
func (p *pass) digest() string {
	h := sha256.New()
	for _, r := range p.runs {
		h.Write(resultsJSON(r.Results))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// single is a workload of one spec simulated once per pass.
type single struct {
	spec dramlat.RunSpec
	ref  simRun // sampled specs: the exact run of the same spec
}

func (w *single) setup(o opts) error {
	s := o.sized(w.spec)
	if !s.IsSampled() {
		return nil
	}
	s.Sampled = dramlat.SampledOptions{}
	var err error
	w.ref, err = simulate(s)
	return err
}

func (w *single) pass(o opts) (*pass, error) {
	// A simulation is one goroutine. With one P its GC work counts in its
	// own wall time and never competes from the other core, which made
	// passes about 5% faster and steadier on a 2-core Xeon KVM guest.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r, err := simulate(o.sized(w.spec))
	return &pass{runs: []simRun{r}, wall: r.Build + r.NewSys + r.Run, workers: 1}, err
}

func (w *single) finish(o opts, first *pass) ([]check, map[string]float64) {
	if !w.spec.IsSampled() {
		return nil, nil
	}
	exact, s := w.ref.Results, first.runs[0].Results
	relErr := func(got, want float64) float64 {
		if want == 0 { // only at smoke sizes, where a run has no divergence gaps
			return 0
		}
		return 100 * math.Abs(got-want) / want
	}
	b := dramlat.DefaultBounds()
	pairs := [][3]float64{
		{s.IPC, exact.IPC, b.IPC.Allowed(exact.IPC)},
		{s.GapP50, exact.GapP50, b.GapP50.Allowed(exact.GapP50)},
		{s.GapP90, exact.GapP90, b.GapP90.Allowed(exact.GapP90)},
		{s.GapP99, exact.GapP99, b.GapP99.Allowed(exact.GapP99)},
	}
	worst := 0.0
	for _, p := range pairs {
		worst = max(worst, math.Abs(p[0]-p[1])/p[2])
	}
	// DefaultBounds holds on most input seeds, not all: over seeds 1-40,
	// sampled spmv under gmc misses it on 4, by up to 1.39x. A
	// statistical miss must not fail a benchmark seed, so the check
	// allows twice the bounds and sampled.bound_ratio reports the margin.
	var err error
	if worst > 2 {
		err = fmt.Errorf("sampled deviates from exact by %.2fx dramlat.DefaultBounds: %w",
			worst, dramlat.CompareSampled(s, exact, b))
	}
	return []check{checkOf("sampled within 2x dramlat.DefaultBounds of exact", err)},
		map[string]float64{
			"sampled.ipc_err_pct":     relErr(s.IPC, exact.IPC),
			"sampled.gap_p90_err_pct": relErr(s.GapP90, exact.GapP90),
			"sampled.bound_ratio":     worst,
		}
}

// fig8Sweep runs the Fig 8 grid — every irregular app under GMC and the
// four warp-aware schedulers — as one cold sweep per pass, with the
// harness's instrumented runner installed in the sweep engine.
type fig8Sweep struct {
	lastCache string // the latest pass's cache, kept for the warm pass
}

var fig8Schedulers = []string{"gmc", "wg", "wg-m", "wg-bw", "wg-w"}

// fig8Paper is the paper's Fig 8 geomean IPC gain over GMC, in percent.
var fig8Paper = map[string]float64{"wg": 3.4, "wg-m": 6.2, "wg-bw": 8.4, "wg-w": 10.1}

func (w *fig8Sweep) specs(o opts) []dramlat.RunSpec {
	specs := sweep.Grid{
		Benchmarks: dramlat.IrregularNames(),
		Schedulers: fig8Schedulers,
		Scales:     []float64{0.1},
	}.Enumerate()
	for i := range specs {
		specs[i] = o.sized(specs[i])
	}
	return specs
}

func (w *fig8Sweep) setup(opts) error { return nil }

func (w *fig8Sweep) pass(o opts) (*pass, error) {
	dir, err := os.MkdirTemp("", "bench-sweep-")
	if err != nil {
		return nil, err
	}
	if w.lastCache != "" {
		os.RemoveAll(w.lastCache)
	}
	w.lastCache = dir
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return nil, err
	}

	type timed struct {
		run  simRun
		busy time.Duration
	}
	var mu sync.Mutex
	byHash := map[string]timed{}
	eng := sweep.Engine{
		Workers: min(2, runtime.NumCPU()),
		Cache:   cache,
		Runner: func(spec dramlat.RunSpec) (dramlat.Results, error) {
			t0 := time.Now()
			r, err := simulate(spec)
			busy := time.Since(t0)
			mu.Lock()
			byHash[spec.Hash()] = timed{r, busy}
			mu.Unlock()
			return r.Results, err
		},
	}
	specs := w.specs(o)
	t0 := time.Now()
	rep := eng.Run(specs)
	p := &pass{wall: time.Since(t0), workers: eng.Workers}
	for _, out := range rep.Outcomes {
		t := byHash[out.Hash]
		p.runs = append(p.runs, t.run)
		p.busy = append(p.busy, t.busy)
	}
	if rep.Executed != len(specs) {
		return p, fmt.Errorf("cold pass executed %d of %d specs", rep.Executed, len(specs))
	}
	return p, rep.Err()
}

func (w *fig8Sweep) finish(o opts, first *pass) ([]check, map[string]float64) {
	defer os.RemoveAll(w.lastCache)
	specs := w.specs(o)
	checks := []check{
		checkOf("warm pass fully cached, records equal the cold pass", w.warm(specs, first)),
		checkOf("instrumented runner equals dramlat.Run", runnerMatchesRun(specs, first)),
	}
	return checks, map[string]float64{"sweep.fig8_mae_pp": fig8MAE(specs, first)}
}

// warm resubmits the grid to the latest pass's cache: every spec must be
// served from it with the records the cold pass produced.
func (w *fig8Sweep) warm(specs []dramlat.RunSpec, first *pass) error {
	cache, err := sweep.OpenCache(w.lastCache)
	if err != nil {
		return err
	}
	rep := (&sweep.Engine{Cache: cache, Runner: func(dramlat.RunSpec) (dramlat.Results, error) {
		return dramlat.Results{}, errors.New("warm pass simulated a spec")
	}}).Run(specs)
	if err := rep.Err(); err != nil {
		return err
	}
	if rep.Cached != len(specs) {
		return fmt.Errorf("%d of %d specs cached", rep.Cached, len(specs))
	}
	for i, o := range rep.Outcomes {
		cold := sweep.RecordOf(sweep.Outcome{Spec: o.Spec, Hash: o.Hash, Results: first.runs[i].Results})
		warm := sweep.RecordOf(o)
		warm.Cached = false
		if cold != warm {
			return fmt.Errorf("%s/%s: warm record differs from cold", o.Spec.Benchmark, o.Spec.Scheduler)
		}
	}
	return nil
}

// runnerMatchesRun re-runs the grid's shortest spec through dramlat.Run:
// the harness's own build-and-run path must not drift from the façade's.
func runnerMatchesRun(specs []dramlat.RunSpec, first *pass) error {
	i := 0
	for j, r := range first.runs {
		if r.Results.Ticks < first.runs[i].Results.Ticks {
			i = j
		}
	}
	res, err := dramlat.Run(specs[i])
	if err != nil {
		return err
	}
	if !bytes.Equal(resultsJSON(res), resultsJSON(first.runs[i].Results)) {
		return fmt.Errorf("%s/%s: Results differ", specs[i].Benchmark, specs[i].Scheduler)
	}
	return nil
}

// fig8MAE is the mean absolute difference, in percentage points, between
// each warp-aware scheduler's geomean IPC gain over GMC and the paper's.
func fig8MAE(specs []dramlat.RunSpec, first *pass) float64 {
	ticks := map[[2]string]float64{}
	for i, s := range specs {
		ticks[[2]string{s.Benchmark, s.Scheduler}] = float64(first.runs[i].Results.Ticks)
	}
	names := fig8Schedulers[1:]
	var sum float64
	for _, s := range names {
		logSum := 0.0
		for _, b := range dramlat.IrregularNames() {
			logSum += math.Log(ticks[[2]string{b, "gmc"}] / ticks[[2]string{b, s}])
		}
		gain := 100 * (math.Exp(logSum/float64(len(dramlat.IrregularNames()))) - 1)
		sum += math.Abs(gain - fig8Paper[s])
	}
	return sum / float64(len(names))
}
