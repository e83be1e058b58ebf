// Command dlbench regenerates every table and figure of the paper's
// evaluation as text tables. Each experiment is selected with -exp; "all"
// runs the full set (the EXPERIMENTS.md record is produced this way).
//
// The simulations behind the tables run through the internal/sweep
// engine: they are prewarmed in parallel (-workers), cached persistently
// on disk (-cache), and a failed run is reported at the end instead of
// killing the sweep. -json exports every run backing the tables as
// machine-readable JSON.
//
// Usage:
//
//	dlbench -exp fig8 [-scale 1] [-sms 30] [-warps 32]
//	dlbench -exp all [-workers 8] [-cache dir|none] [-json out.json]
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig8 fig9 fig10 fig11
// fig12 regular power sbwas wafcfs util1bank ablation all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dramlat"
	"dramlat/internal/atomicio"
	"dramlat/internal/prof"
	"dramlat/internal/sweep"
)

// session is the per-invocation sweep state shared by every runner
// (including the ablation sub-runners): the engine, an in-memory memo of
// everything resolved so far, and the executed/cached/failed accounting
// for the exit summary and -json export.
type session struct {
	ctx      context.Context // cancels the whole invocation (SIGINT)
	eng      *sweep.Engine
	memo     map[string]sweep.Outcome // by canonical spec hash
	order    []string                 // memo insertion order, for export
	executed int
	cached   int
	failed   int
	start    time.Time
}

func newSession(ctx context.Context, eng *sweep.Engine) *session {
	return &session{ctx: ctx, eng: eng, memo: map[string]sweep.Outcome{}, start: time.Now()}
}

// lookup resolves one spec: memo, then the engine (disk cache, then a
// real run). A failed run is recorded and its partial results returned —
// the sweep continues and main exits non-zero at the end.
func (s *session) lookup(spec dramlat.RunSpec) dramlat.Results {
	h := spec.Hash()
	if o, ok := s.memo[h]; ok {
		return o.Results
	}
	o := s.eng.RunOneContext(s.ctx, spec)
	s.record(o)
	if o.Err != nil {
		if !errors.Is(o.Err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "dlbench: %v (continuing)\n", o.Err)
		}
	} else if !o.Cached {
		fmt.Fprintf(os.Stderr, "  ran %s/%s seed %d %10d ticks\n",
			spec.Benchmark, spec.Scheduler, spec.Canonical().Seed, o.Results.Ticks)
	}
	return o.Results
}

func (s *session) record(o sweep.Outcome) {
	if _, ok := s.memo[o.Hash]; ok {
		return
	}
	s.memo[o.Hash] = o
	s.order = append(s.order, o.Hash)
	switch {
	case o.Err != nil:
		s.failed++
	case o.Cached:
		s.cached++
	default:
		s.executed++
	}
}

// prewarm runs the specs an experiment set needs through the engine's
// worker pool, so the table code below finds everything in the memo.
func (s *session) prewarm(specs []dramlat.RunSpec) {
	if len(specs) == 0 {
		return
	}
	rep := s.eng.RunContext(s.ctx, specs)
	for _, o := range rep.Outcomes {
		s.record(o)
		if o.Err != nil && !errors.Is(o.Err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "dlbench: %v (continuing)\n", o.Err)
		}
	}
}

// report assembles the sweep report over every unique spec this
// invocation touched, for the -json export.
func (s *session) report() *sweep.Report {
	rep := &sweep.Report{
		Executed: s.executed, Cached: s.cached, Failed: s.failed,
		Elapsed: time.Since(s.start),
	}
	for _, h := range s.order {
		rep.Outcomes = append(rep.Outcomes, s.memo[h])
	}
	return rep
}

type runner struct {
	scale      float64
	sms, warps int
	seed       int64
	seeds      int // >1: average kernel times over this many seeds
	ablation   string
	engine     string
	s          *session
}

// spec builds the RunSpec for one table cell under this runner's
// geometry, seed and ablation.
func (r *runner) spec(bench, sched string, perfect, zerodiv bool, alpha float64) dramlat.RunSpec {
	return dramlat.RunSpec{
		Benchmark: bench, Scheduler: sched, Scale: r.scale,
		SMs: r.sms, WarpsPerSM: r.warps, Seed: r.seed,
		PerfectCoalescing: perfect, ZeroDivergence: zerodiv, SBWASAlpha: alpha,
		Ablation: r.ablation, Engine: r.engine,
	}
}

func (r *runner) run(bench, sched string, perfect, zerodiv bool, alpha float64) dramlat.Results {
	return r.s.lookup(r.spec(bench, sched, perfect, zerodiv, alpha))
}

func (r *runner) base(bench string) dramlat.Results { return r.run(bench, "gmc", false, false, 0.5) }

// ticks returns the kernel time for (bench, sched), averaged over -seeds
// workload seeds when more than one is requested.
func (r *runner) ticks(bench, sched string) float64 {
	if r.seeds <= 1 {
		return float64(r.run(bench, sched, false, false, 0.5).Ticks)
	}
	baseSeed := r.seed
	defer func() { r.seed = baseSeed }()
	var sum float64
	for i := 0; i < r.seeds; i++ {
		r.seed = baseSeed + int64(i)
		sum += float64(r.run(bench, sched, false, false, 0.5).Ticks)
	}
	return sum / float64(r.seeds)
}

// speedup of sched over the GMC baseline (kernel-time ratio).
func (r *runner) speedup(bench, sched string) float64 {
	return r.ticks(bench, "gmc") / r.ticks(bench, sched)
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// experimentOrder is the -exp all sequence (the EXPERIMENTS.md order).
var experimentOrder = []string{"table1", "table2", "table3", "fig2", "fig3", "fig4",
	"fig8", "fig9", "fig10", "fig11", "fig12", "regular", "power",
	"sbwas", "wafcfs", "util1bank", "ablation", "cpusched", "extension",
	"sensitivity", "motivation"}

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..3, fig2..4, fig8..12, regular, power, sbwas, wafcfs, util1bank, all)")
	scale := flag.Float64("scale", 1.0, "work scale")
	sms := flag.Int("sms", 0, "override SMs")
	warps := flag.Int("warps", 0, "override warps/SM")
	seed := flag.Int64("seed", 1, "workload seed")
	seeds := flag.Int("seeds", 1, "average kernel times over this many seeds")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "simulation engine: event (exact, the default) or sampled (approximate paper numbers — error bars are not printed, prefer the exact engine here)")
	cacheDir := flag.String("cache", sweep.DefaultCacheDir(), "persistent result cache dir (\"none\" disables)")
	jsonOut := flag.String("json", "", "also write every run as sweep JSON to this file (\"-\" = stdout)")
	pf := prof.Register()
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		os.Exit(1)
	}
	defer pf.Stop()

	progress := func(ev sweep.Event) {
		if ev.Outcome.Cached || ev.Outcome.Err != nil {
			return
		}
		sp := ev.Outcome.Spec.Canonical()
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] ran %s/%s seed %d %10d ticks\n",
			ev.Done, ev.Total, sp.Benchmark, sp.Scheduler, sp.Seed, ev.Outcome.Results.Ticks)
	}
	var cache *sweep.Cache
	if *cacheDir != "" && *cacheDir != "none" {
		var err error
		cache, err = sweep.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %v (running uncached)\n", err)
		}
	}
	eng := &sweep.Engine{Workers: *workers, Cache: cache, Progress: progress}
	// First SIGINT/SIGTERM cancels the session: in-flight simulations
	// abort at their next watchdog check, finished results are already
	// cached, and the partial accounting (and -json export) is still
	// written — re-running the same command resumes from the cache.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	s := newSession(ctx, eng)
	r := &runner{scale: *scale, sms: *sms, warps: *warps, seed: *seed, seeds: *seeds,
		engine: *engine, s: s}

	exps := map[string]func(*runner){
		"table1": table1, "table2": table2, "table3": table3,
		"fig2": fig2, "fig3": fig3, "fig4": fig4,
		"fig8": fig8, "fig9": fig9, "fig10": fig10, "fig11": fig11, "fig12": fig12,
		"regular": regular, "power": powerExp, "sbwas": sbwas, "wafcfs": wafcfs,
		"util1bank": util1bank, "ablation": ablation,
		"cpusched": cpusched, "extension": extension,
		"sensitivity": sensitivity, "motivation": motivation,
	}
	selected := []string{*exp}
	if *exp == "all" {
		selected = experimentOrder
	} else if _, ok := exps[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "dlbench: unknown experiment %q\n", *exp)
		pf.Stop()
		os.Exit(2)
	}

	// Prewarm: enumerate every spec the selected experiments need and
	// run them on the engine's worker pool; the table code then reads
	// the memo. Specs the enumeration misses still run (serially) via
	// session.lookup, so the tables are always complete.
	var specs []dramlat.RunSpec
	for _, e := range selected {
		specs = append(specs, experimentSpecs(r, e)...)
	}
	s.prewarm(specs)
	if len(specs) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d unique specs, %d executed, %d cached, %d failed (cache: %s)\n",
			len(s.order), s.executed, s.cached, s.failed, cache.Dir())
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "dlbench: interrupted — skipping tables (completed runs are cached; re-run to resume)")
	} else {
		for _, e := range selected {
			exps[e](r)
		}
	}

	if *jsonOut != "" {
		// Render into a buffer and commit in one step, so an interrupt or
		// error mid-render never leaves a truncated export behind.
		out := atomicio.Create(*jsonOut)
		if err := s.report().WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			pf.Stop()
			os.Exit(1)
		}
		if err := out.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			pf.Stop()
			os.Exit(1)
		}
	}

	if s.failed > 0 {
		fmt.Fprintf(os.Stderr, "dlbench: %d of %d runs failed:\n", s.failed, len(s.order))
		for _, h := range s.order {
			o := s.memo[h]
			if o.Err == nil || errors.Is(o.Err, context.Canceled) {
				continue // the "interrupted" line already covers these
			}
			sp := o.Spec.Canonical()
			fmt.Fprintf(os.Stderr, "  %s/%s seed %d: %v\n", sp.Benchmark, sp.Scheduler, sp.Seed, o.Err)
		}
	}
	if s.failed > 0 || ctx.Err() != nil {
		pf.Stop()
		os.Exit(1)
	}
}

// experimentSpecs enumerates the specs one experiment will request, for
// parallel prewarming. It mirrors the table functions below; drifting out
// of sync only costs parallelism (lookup still runs stragglers), never
// correctness.
func experimentSpecs(r *runner, exp string) []dramlat.RunSpec {
	var specs []dramlat.RunSpec
	add := func(bench, sched string, perfect, zerodiv bool, alpha float64) {
		specs = append(specs, r.spec(bench, sched, perfect, zerodiv, alpha))
	}
	// seeded mirrors runner.ticks: seeds > 1 averages over consecutive
	// workload seeds.
	seeded := func(bench, sched string) {
		if r.seeds <= 1 {
			add(bench, sched, false, false, 0.5)
			return
		}
		base := r.spec(bench, sched, false, false, 0.5)
		for i := 0; i < r.seeds; i++ {
			sp := base
			sp.Seed = r.seed + int64(i)
			specs = append(specs, sp)
		}
	}
	irr := dramlat.IrregularNames()
	switch exp {
	case "fig2", "fig3", "motivation":
		for _, b := range irr {
			add(b, "gmc", false, false, 0.5)
		}
	case "fig4":
		for _, b := range irr {
			add(b, "gmc", false, false, 0.5)
			add(b, "gmc", true, false, 0.5)
			add(b, "gmc", false, true, 0.5)
		}
	case "fig8":
		for _, b := range irr {
			seeded(b, "gmc")
			for _, s := range dramlat.WarpAwareSchedulers() {
				seeded(b, s)
			}
		}
	case "fig9", "fig10", "fig11":
		for _, b := range irr {
			add(b, "gmc", false, false, 0.5)
			for _, s := range dramlat.WarpAwareSchedulers() {
				add(b, s, false, false, 0.5)
			}
		}
	case "fig12":
		for _, b := range irr {
			add(b, "wg-w", false, false, 0.5)
		}
	case "regular":
		for _, b := range dramlat.RegularNames() {
			seeded(b, "gmc")
			seeded(b, "wg-w")
		}
	case "power":
		for _, b := range irr {
			add(b, "gmc", false, false, 0.5)
			add(b, "wg-w", false, false, 0.5)
		}
	case "sbwas":
		for _, b := range irr {
			add(b, "gmc", false, false, 0.5)
			for _, a := range []float64{0.25, 0.5, 0.75} {
				add(b, "sbwas", false, false, a)
			}
		}
	case "wafcfs":
		for _, b := range irr {
			seeded(b, "gmc")
			seeded(b, "wafcfs")
		}
	case "cpusched":
		for _, b := range irr {
			for _, s := range []string{"gmc", "parbs", "atlas", "wg-w"} {
				seeded(b, s)
			}
		}
	case "extension":
		for _, b := range irr {
			for _, s := range []string{"gmc", "wg-w", "wg-sh"} {
				seeded(b, s)
			}
		}
	case "sensitivity":
		for _, rq := range []int{16, 32, 64, 128} {
			for _, b := range []string{"spmv", "kmeans"} {
				for _, s := range []string{"gmc", "wg-w"} {
					sp := r.spec(b, s, false, false, 0.5)
					sp.ReadQ = rq
					specs = append(specs, sp)
				}
			}
		}
	case "ablation":
		for _, b := range []string{"bfs", "kmeans", "spmv", "sssp"} {
			add(b, "wg-bw", false, false, 0.5)
			for _, ab := range []string{"count-score", "no-orphan", "no-credits"} {
				sp := r.spec(b, "wg-bw", false, false, 0.5)
				sp.Ablation = ab
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

func table1(r *runner) {
	header("Table I: MERB values (GDDR5)")
	tab := dramlat.MERBTable(16)
	fmt.Printf("%-10s %s\n", "banks", "MERB")
	for b := 1; b <= 5; b++ {
		fmt.Printf("%-10d %d\n", b, tab[b-1])
	}
	fmt.Printf("%-10s %d\n", "6-16", tab[5])
	fmt.Println("paper: 31 20 10 7 5 5")
}

func table2(r *runner) {
	header("Table II: simulation parameters")
	cfg := dramlat.Config(dramlat.RunSpec{})
	t := cfg.Timing
	fmt.Printf("compute units        %d\n", cfg.NumSMs)
	fmt.Printf("warp size            %d\n", cfg.WarpSize)
	fmt.Printf("max warps/core       %d (1024 threads)\n", cfg.WarpsPerSM)
	fmt.Printf("L1 per core          %dKB %d-way, %dB lines\n", cfg.L1SizeBytes>>10, cfg.L1Ways, cfg.LineBytes)
	fmt.Printf("L2 per partition     %dKB %d-way\n", cfg.L2SliceSize>>10, cfg.L2Ways)
	fmt.Printf("DRAM channels        %d x 64-bit GDDR5\n", cfg.NumChannels)
	fmt.Printf("banks/chip           %d (%d bank groups)\n", cfg.NumBanks, cfg.BankGroups)
	fmt.Printf("read/write queues    %d/%d, watermarks %d/%d\n", cfg.ReadQ, cfg.WriteQ, cfg.HighWM, cfg.LowWM)
	fmt.Printf("tCK                  0.667 ns (6 Gbps pin)\n")
	fmt.Printf("tRC=%dns tRCD=%dns tRP=%dns tCAS=%dns tRAS=%dns\n",
		int(t.TRCNS), int(t.TRCDNS), int(t.TRPNS), int(t.TCASNS), int(t.TRASNS))
	fmt.Printf("tRRD=%.1fns tWTR=%dns tFAW=%dns tRTP=%dns\n",
		t.TRRDNS, int(t.TWTRNS), int(t.TFAWNS), int(t.TRTPNS))
	fmt.Printf("tWL=%dtCK tBURST=%dtCK tRTRS=%dtCK tCCDL=%dtCK tCCDS=%dtCK\n",
		t.TWL, t.TBURST, t.TRTRS, t.TCCDL, t.TCCDS)
}

func table3(r *runner) {
	header("Table III: workloads")
	for _, b := range dramlat.Benchmarks() {
		kind := "regular (§VI-A)"
		if b.Irregular {
			kind = "irregular"
		}
		fmt.Printf("%-14s %-12s %-16s %s\n", b.Name, b.Suite, kind, b.Desc)
	}
}

func fig2(r *runner) {
	header("Fig 2: coalescing efficiency (GMC baseline)")
	fmt.Printf("%-10s %18s %14s\n", "bench", ">1-request loads", "reqs/load")
	var fr, rl []float64
	for _, b := range dramlat.IrregularNames() {
		s := r.base(b).Summary
		fmt.Printf("%-10s %17.0f%% %14.2f\n", b, s.MultiReqFrac*100, s.ReqsPerLoad)
		fr = append(fr, s.MultiReqFrac)
		rl = append(rl, s.ReqsPerLoad)
	}
	fmt.Printf("%-10s %17.0f%% %14.2f   (paper: 56%%, 5.9)\n", "MEAN", mean(fr)*100, mean(rl))
}

func fig3(r *runner) {
	header("Fig 3: extent of memory latency divergence (GMC baseline)")
	fmt.Printf("%-10s %12s %12s\n", "bench", "last/first", "MCs/warp")
	var lf, mc []float64
	for _, b := range dramlat.IrregularNames() {
		s := r.base(b).Summary
		fmt.Printf("%-10s %11.2fx %12.2f\n", b, s.LastOverFirst, s.AvgMCsTouched)
		lf = append(lf, s.LastOverFirst)
		mc = append(mc, s.AvgMCsTouched)
	}
	fmt.Printf("%-10s %11.2fx %12.2f   (paper: 1.6x, 2.5)\n", "MEAN", mean(lf), mean(mc))
}

func fig4(r *runner) {
	header("Fig 4: room for improvement (speedup over GMC)")
	fmt.Printf("%-10s %18s %22s\n", "bench", "perfect coalescing", "zero latency divergence")
	var pc, zd []float64
	for _, b := range dramlat.IrregularNames() {
		base := float64(r.base(b).Ticks)
		p := base / float64(r.run(b, "gmc", true, false, 0.5).Ticks)
		z := base / float64(r.run(b, "gmc", false, true, 0.5).Ticks)
		fmt.Printf("%-10s %17.2fx %21.2fx\n", b, p, z)
		pc = append(pc, p)
		zd = append(zd, z)
	}
	fmt.Printf("%-10s %17.2fx %21.2fx   (paper: ~5x, ~1.43x)\n", "GEOMEAN", geomean(pc), geomean(zd))
}

func fig8(r *runner) {
	header("Fig 8: performance normalized to GMC")
	scheds := dramlat.WarpAwareSchedulers()
	fmt.Printf("%-10s", "bench")
	for _, s := range scheds {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	agg := map[string][]float64{}
	for _, b := range dramlat.IrregularNames() {
		fmt.Printf("%-10s", b)
		for _, s := range scheds {
			sp := r.speedup(b, s)
			agg[s] = append(agg[s], sp)
			fmt.Printf(" %8.3f", sp)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "GEOMEAN")
	for _, s := range scheds {
		fmt.Printf(" %8.3f", geomean(agg[s]))
	}
	fmt.Println("\npaper means: wg 1.034, wg-m 1.062, wg-bw 1.084, wg-w 1.101")
}

func fig9(r *runner) {
	header("Fig 9: effective main-memory latency (normalized to GMC)")
	scheds := dramlat.WarpAwareSchedulers()
	fmt.Printf("%-10s", "bench")
	for _, s := range scheds {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	agg := map[string][]float64{}
	for _, b := range dramlat.IrregularNames() {
		fmt.Printf("%-10s", b)
		base := r.base(b).Summary.EffectiveLatency
		for _, s := range scheds {
			v := r.run(b, s, false, false, 0.5).Summary.EffectiveLatency / base
			agg[s] = append(agg[s], v)
			fmt.Printf(" %8.3f", v)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "GEOMEAN")
	for _, s := range scheds {
		fmt.Printf(" %8.3f", geomean(agg[s]))
	}
	fmt.Println("\npaper: wg -9.1% (0.909), wg-m -16.9% (0.831)")
}

func fig10(r *runner) {
	header("Fig 10: DRAM latency divergence (first-to-last gap, ticks)")
	scheds := append([]string{"gmc"}, dramlat.WarpAwareSchedulers()...)
	fmt.Printf("%-10s", "bench")
	for _, s := range scheds {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	for _, b := range dramlat.IrregularNames() {
		fmt.Printf("%-10s", b)
		for _, s := range scheds {
			fmt.Printf(" %8.0f", r.run(b, s, false, false, 0.5).Summary.DivergenceGap)
		}
		fmt.Println()
	}
}

func fig11(r *runner) {
	header("Fig 11: DRAM bandwidth utilization")
	scheds := append([]string{"gmc"}, dramlat.WarpAwareSchedulers()...)
	fmt.Printf("%-10s", "bench")
	for _, s := range scheds {
		fmt.Printf(" %8s", s)
	}
	fmt.Println()
	agg := map[string][]float64{}
	for _, b := range dramlat.IrregularNames() {
		fmt.Printf("%-10s", b)
		for _, s := range scheds {
			u := r.run(b, s, false, false, 0.5).Utilization
			agg[s] = append(agg[s], u)
			fmt.Printf(" %7.1f%%", u*100)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "MEAN")
	for _, s := range scheds {
		fmt.Printf(" %7.1f%%", mean(agg[s])*100)
	}
	fmt.Println("\npaper: wg-bw recovers >14% of the bandwidth wg-m loses")
}

func fig12(r *runner) {
	header("Fig 12: write intensity and drain-stalled warp-groups (wg-w)")
	fmt.Printf("%-10s %12s %22s\n", "bench", "write frac", "unit/orphan stalled")
	for _, b := range dramlat.IrregularNames() {
		res := r.run(b, "wg-w", false, false, 0.5)
		frac := 0.0
		if res.DrainStalledGroups > 0 {
			frac = float64(res.DrainStalledUnitOrOrphan) / float64(res.DrainStalledGroups)
		}
		fmt.Printf("%-10s %11.1f%% %21.1f%%\n", b, res.WriteFrac*100, frac*100)
	}
}

func regular(r *runner) {
	header("Section VI-A: non-divergent applications (wg-w vs GMC)")
	fmt.Printf("%-14s %10s\n", "bench", "speedup")
	var sp []float64
	worst := math.Inf(1)
	for _, b := range dramlat.RegularNames() {
		s := r.speedup(b, "wg-w")
		sp = append(sp, s)
		if s < worst {
			worst = s
		}
		fmt.Printf("%-14s %10.3f\n", b, s)
	}
	fmt.Printf("%-14s %10.3f   worst %.3f   (paper: +1.8%%, no slowdowns)\n",
		"GEOMEAN", geomean(sp), worst)
}

func powerExp(r *runner) {
	header("Section VI-B: row-hit rate and GDDR5 power (wg-w vs GMC)")
	var hitDeltas, pwDeltas []float64
	fmt.Printf("%-10s %12s %12s %12s\n", "bench", "gmc hit", "wg-w hit", "power delta")
	for _, b := range dramlat.IrregularNames() {
		g := r.base(b)
		w := r.run(b, "wg-w", false, false, 0.5)
		pg := dramlat.EstimatePower(g)
		pw := dramlat.EstimatePower(w)
		d := pw.TotalMW/pg.TotalMW - 1
		fmt.Printf("%-10s %11.1f%% %11.1f%% %+11.2f%%\n",
			b, g.RowHitRate*100, w.RowHitRate*100, d*100)
		if g.RowHitRate > 0 {
			hitDeltas = append(hitDeltas, w.RowHitRate/g.RowHitRate-1)
		}
		pwDeltas = append(pwDeltas, d)
	}
	fmt.Printf("MEAN hit-rate change %+.1f%%, power change %+.2f%%   (paper: -16%%, +1.8%%)\n",
		mean(hitDeltas)*100, mean(pwDeltas)*100)
}

func sbwas(r *runner) {
	header("Section VI-C1: SBWAS (alpha profiled per benchmark)")
	fmt.Printf("%-10s %8s %8s\n", "bench", "alpha", "speedup")
	var sp []float64
	for _, b := range dramlat.IrregularNames() {
		best, bestA := 0.0, 0.0
		for _, a := range []float64{0.25, 0.5, 0.75} {
			s := float64(r.base(b).Ticks) / float64(r.run(b, "sbwas", false, false, a).Ticks)
			if s > best {
				best, bestA = s, a
			}
		}
		sp = append(sp, best)
		fmt.Printf("%-10s %8.2f %8.3f\n", b, bestA, best)
	}
	fmt.Printf("%-10s %8s %8.3f   (paper: +2.51%%)\n", "GEOMEAN", "", geomean(sp))
}

func wafcfs(r *runner) {
	header("Section VI-C2: WAFCFS (Yuan et al.)")
	fmt.Printf("%-10s %8s\n", "bench", "speedup")
	var sp []float64
	for _, b := range dramlat.IrregularNames() {
		s := r.speedup(b, "wafcfs")
		sp = append(sp, s)
		fmt.Printf("%-10s %8.3f\n", b, s)
	}
	fmt.Printf("%-10s %8.3f   (paper: 0.888, an 11.2%% degradation)\n", "GEOMEAN", geomean(sp))
}

func util1bank(r *runner) {
	header("Section IV-D: single-bank utilization model")
	t := dramlat.Timing()
	var ns []int
	for n := 1; n <= 31; n *= 2 {
		ns = append(ns, n)
	}
	ns = append(ns, 31)
	sort.Ints(ns)
	for _, n := range ns {
		bar := strings.Repeat("#", int(t.SingleBankUtilization(n)*50))
		fmt.Printf("n=%-4d %5.1f%% %s\n", n, t.SingleBankUtilization(n)*100, bar)
	}
}

// cpusched runs the CPU memory schedulers the paper argues are ill-suited
// to warp-level divergence (Section VI-C3): PAR-BS batches mix warps, and
// ATLAS coordinates at quanta far coarser than a warp's lifetime.
func cpusched(r *runner) {
	header("Section VI-C3: CPU memory schedulers (PAR-BS, ATLAS) vs GMC")
	fmt.Printf("%-10s %8s %8s %8s\n", "bench", "parbs", "atlas", "wg-w")
	aggP, aggA, aggW := []float64{}, []float64{}, []float64{}
	for _, b := range dramlat.IrregularNames() {
		p := r.speedup(b, "parbs")
		a := r.speedup(b, "atlas")
		w := r.speedup(b, "wg-w")
		aggP = append(aggP, p)
		aggA = append(aggA, a)
		aggW = append(aggW, w)
		fmt.Printf("%-10s %8.3f %8.3f %8.3f\n", b, p, a, w)
	}
	fmt.Printf("%-10s %8.3f %8.3f %8.3f\n", "GEOMEAN", geomean(aggP), geomean(aggA), geomean(aggW))
	fmt.Println("(the paper argues thread-centric CPU policies cannot reduce")
	fmt.Println(" warp latency divergence; they should trail the wg family)")
}

// extension runs the shared-data warp-group priority sketched in the
// paper's conclusion (wg-sh = wg-w + multi-warp-demand priority).
func extension(r *runner) {
	header("Conclusion extension: shared-data warp-group priority (wg-sh)")
	fmt.Printf("%-10s %8s %8s\n", "bench", "wg-w", "wg-sh")
	var a, b2 []float64
	for _, b := range dramlat.IrregularNames() {
		w := r.speedup(b, "wg-w")
		sh := r.speedup(b, "wg-sh")
		a = append(a, w)
		b2 = append(b2, sh)
		fmt.Printf("%-10s %8.3f %8.3f\n", b, w, sh)
	}
	fmt.Printf("%-10s %8.3f %8.3f\n", "GEOMEAN", geomean(a), geomean(b2))
}

// motivation quantifies the Section III-A argument that multithreading
// cannot hide divergence-induced stalls: the fraction of core cycles where
// an SM had live warps but none ready to issue.
func motivation(r *runner) {
	header("Section III-A: SM idle cycles (all warps stalled) under GMC")
	fmt.Printf("%-10s %12s %12s\n", "bench", "idle frac", "L1 hit rate")
	var idle []float64
	for _, b := range dramlat.IrregularNames() {
		res := r.base(b)
		idle = append(idle, res.SMIdleFrac)
		fmt.Printf("%-10s %11.1f%% %11.1f%%\n", b, res.SMIdleFrac*100, res.L1HitRate*100)
	}
	fmt.Printf("%-10s %11.1f%%\n", "MEAN", mean(idle)*100)
	fmt.Println("(previous studies [18],[27]: cores frequently sit idle with all")
	fmt.Println(" warps stalled on memory; caches have poor hit rates under")
	fmt.Println(" thousands of concurrent threads)")
}

// sensitivity sweeps the queue depths that control how much reordering
// freedom the warp-aware scheduler has: the read queue (Table II: 64) and
// the per-bank command queue. The warp-aware gain should grow with queue
// depth - with shallow queues there is nothing to reorder.
func sensitivity(r *runner) {
	header("Sensitivity: wg-w speedup over GMC vs read-queue depth")
	benches := []string{"spmv", "kmeans"}
	fmt.Printf("%-16s", "readQ")
	for _, b := range benches {
		fmt.Printf(" %10s", b)
	}
	fmt.Println()
	runOne := func(b, sched string, rq int) int64 {
		sp := r.spec(b, sched, false, false, 0.5)
		sp.ReadQ = rq
		return r.s.lookup(sp).Ticks
	}
	for _, rq := range []int{16, 32, 64, 128} {
		fmt.Printf("%-16d", rq)
		for _, b := range benches {
			sp := float64(runOne(b, "gmc", rq)) / float64(runOne(b, "wg-w", rq))
			fmt.Printf(" %10.3f", sp)
		}
		fmt.Println()
	}
	fmt.Println("(deeper queues give the warp-aware scheduler more to reorder)")
}

// ablation quantifies the warp-aware design choices DESIGN.md calls out:
// bank-aware scoring vs raw request counts, orphan control, and the L2
// group-complete credits, each measured as a slowdown of wg-bw on four
// representative irregular benchmarks.
func ablation(r *runner) {
	header("Ablation: warp-aware design choices (slowdown of wg-bw when removed)")
	benches := []string{"bfs", "kmeans", "spmv", "sssp"}
	for _, ab := range []string{"count-score", "no-orphan", "no-credits"} {
		sub := &runner{scale: r.scale, sms: r.sms, warps: r.warps, seed: r.seed,
			ablation: ab, engine: r.engine, s: r.s}
		var slow []float64
		fmt.Printf("%-14s", ab)
		for _, b := range benches {
			full := float64(r.run(b, "wg-bw", false, false, 0.5).Ticks)
			abl := float64(sub.run(b, "wg-bw", false, false, 0.5).Ticks)
			slow = append(slow, abl/full)
			fmt.Printf(" %s=%.3f", b, abl/full)
		}
		fmt.Printf("  geomean=%.3f\n", geomean(slow))
	}
	fmt.Println("(values > 1.000 mean the removed mechanism was helping)")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
