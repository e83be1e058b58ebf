// Command dlbench regenerates every table and figure of the paper's
// evaluation as text tables. Each experiment is selected with -exp; "all"
// runs the full set in EXPERIMENTS.md order (the EXPERIMENTS.md record is
// produced this way), and -h lists the experiment ids.
//
// Each table function is the one definition of the simulations its table
// needs. dlbench plays the selected tables twice: a collect pass, whose
// runs return zero Results into discarded output, records every spec they
// request; one internal/sweep run then executes the unique specs in
// parallel (-workers) through the persistent cache (-cache); and a render
// pass prints the tables from those results. A failed run is reported at
// the end instead of killing the sweep. -json exports every run backing
// the tables as machine-readable JSON.
//
// Usage:
//
//	dlbench -exp fig8 [-scale 1] [-sms 30] [-warps 32]
//	dlbench -exp all [-workers 8] [-cache dir|none] [-json out.json]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"dramlat"
	"dramlat/internal/atomicio"
	"dramlat/internal/prof"
	"dramlat/internal/sweep"
)

// experiment is one table or figure.
type experiment struct {
	name string
	run  func(*runner)
}

// experiments lists every experiment in the order -exp all runs them
// (the EXPERIMENTS.md order).
var experiments = []experiment{
	{"table1", table1}, {"table2", table2}, {"table3", table3},
	{"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
	{"fig8", fig8}, {"fig9", fig9}, {"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
	{"regular", regular}, {"power", powerExp}, {"sbwas", sbwas}, {"wafcfs", wafcfs},
	{"util1bank", util1bank}, {"ablation", ablation}, {"cpusched", cpusched},
	{"extension", extension}, {"sensitivity", sensitivity}, {"motivation", motivation},
}

// runner plays experiments: it builds each table cell's spec, looks its
// results up, and writes the tables to out.
type runner struct {
	scale      float64
	sms, warps int
	seed       int64
	seeds      int // >1: average kernel times over this many seeds
	ablation   string
	engine     string
	out        io.Writer
	*pass
}

// pass is the state of one play, shared by a runner and its ablation
// sub-runners.
type pass struct {
	results map[string]dramlat.Results // by spec hash; nil in the collect pass
	missing []dramlat.RunSpec          // requested specs results lacks, unique, in request order
	seen    map[string]bool            // hashes already in missing
}

// play runs exps against results, writing their tables to out, and
// returns the specs they requested that results lacks. With nil results
// this is the collect pass: every spec comes back, deduplicated by hash in
// first-request order, and each lookup returns zero Results. No table's
// spec set depends on the results it reads, so the collect pass is exact.
func play(r runner, exps []experiment, results map[string]dramlat.Results, out io.Writer) []dramlat.RunSpec {
	r.out = out
	r.pass = &pass{results: results, seen: map[string]bool{}}
	for _, e := range exps {
		e.run(&r)
	}
	return r.missing
}

// render runs exps against the results of the one sweep and writes their
// tables to w. A spec the collect pass did not request is an error naming
// it, and then nothing is written.
func render(r runner, exps []experiment, results map[string]dramlat.Results, w io.Writer) error {
	var buf bytes.Buffer
	missing := play(r, exps, results, &buf)
	if len(missing) > 0 {
		errs := make([]error, len(missing))
		for i, sp := range missing {
			b, _ := sp.CanonicalJSON() // cannot fail: lookup already hashed it
			errs[i] = fmt.Errorf("no result for %s: the collect pass did not request it", b)
		}
		return errors.Join(errs...)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// lookup returns the results of one spec, recording it when they are
// missing.
func (r *runner) lookup(spec dramlat.RunSpec) dramlat.Results {
	h := spec.Hash()
	res, ok := r.results[h]
	if !ok && !r.seen[h] {
		r.seen[h] = true
		r.missing = append(r.missing, spec)
	}
	return res
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
	return r.lookup(r.spec(bench, sched, perfect, zerodiv, alpha))
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

func (r *runner) printf(format string, a ...any) { fmt.Fprintf(r.out, format, a...) }

func (r *runner) println(a ...any) { fmt.Fprintln(r.out, a...) }

func (r *runner) header(title string) { r.printf("\n==== %s ====\n", title) }

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment id: all, or one of "+strings.Join(names, ", "))
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
	exit := func(code int) {
		pf.Stop()
		os.Exit(code)
	}
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		os.Exit(1)
	}
	defer pf.Stop()

	selected := experiments
	if *exp != "all" {
		selected = nil
		for i, e := range experiments {
			if e.name == *exp {
				selected = experiments[i : i+1]
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "dlbench: unknown experiment %q\n", *exp)
			exit(2)
		}
	}

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
	// First SIGINT/SIGTERM cancels the sweep: in-flight simulations
	// abort at their next watchdog check, finished results are already
	// cached, and the partial accounting (and -json export) is still
	// written — re-running the same command resumes from the cache.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	r := runner{scale: *scale, sms: *sms, warps: *warps, seed: *seed, seeds: *seeds, engine: *engine}

	specs := play(r, selected, nil, io.Discard)
	rep := eng.RunContext(ctx, specs)
	results := make(map[string]dramlat.Results, len(rep.Outcomes))
	for _, o := range rep.Outcomes {
		// A failed run still renders from its partial results; main
		// exits non-zero at the end.
		results[o.Hash] = o.Results
		if o.Err != nil && !errors.Is(o.Err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "dlbench: %v (continuing)\n", o.Err)
		}
	}
	if len(specs) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d unique specs, %d executed, %d cached, %d failed (cache: %s)\n",
			len(specs), rep.Executed, rep.Cached, rep.Failed, cache.Dir())
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "dlbench: interrupted — skipping tables (completed runs are cached; re-run to resume)")
	} else if err := render(r, selected, results, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		exit(1)
	}

	if *jsonOut != "" {
		// Render into a buffer and commit in one step, so an interrupt or
		// error mid-render never leaves a truncated export behind.
		out := atomicio.Create(*jsonOut)
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			exit(1)
		}
		if err := out.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			exit(1)
		}
	}

	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "dlbench: %d of %d runs failed:\n", rep.Failed, len(rep.Outcomes))
		for _, o := range rep.Outcomes {
			if o.Err == nil || errors.Is(o.Err, context.Canceled) {
				continue // the "interrupted" line already covers these
			}
			sp := o.Spec.Canonical()
			fmt.Fprintf(os.Stderr, "  %s/%s seed %d: %v\n", sp.Benchmark, sp.Scheduler, sp.Seed, o.Err)
		}
	}
	if rep.Failed > 0 || ctx.Err() != nil {
		exit(1)
	}
}

func table1(r *runner) {
	r.header("Table I: MERB values (GDDR5)")
	tab := dramlat.MERBTable(16)
	r.printf("%-10s %s\n", "banks", "MERB")
	for b := 1; b <= 5; b++ {
		r.printf("%-10d %d\n", b, tab[b-1])
	}
	r.printf("%-10s %d\n", "6-16", tab[5])
	r.println("paper: 31 20 10 7 5 5")
}

func table2(r *runner) {
	r.header("Table II: simulation parameters")
	cfg := dramlat.Config(dramlat.RunSpec{})
	t := cfg.Timing
	r.printf("compute units        %d\n", cfg.NumSMs)
	r.printf("warp size            %d\n", cfg.WarpSize)
	r.printf("max warps/core       %d (1024 threads)\n", cfg.WarpsPerSM)
	r.printf("L1 per core          %dKB %d-way, %dB lines\n", cfg.L1SizeBytes>>10, cfg.L1Ways, cfg.LineBytes)
	r.printf("L2 per partition     %dKB %d-way\n", cfg.L2SliceSize>>10, cfg.L2Ways)
	r.printf("DRAM channels        %d x 64-bit GDDR5\n", cfg.NumChannels)
	r.printf("banks/chip           %d (%d bank groups)\n", cfg.NumBanks, cfg.BankGroups)
	r.printf("read/write queues    %d/%d, watermarks %d/%d\n", cfg.ReadQ, cfg.WriteQ, cfg.HighWM, cfg.LowWM)
	r.printf("tCK                  0.667 ns (6 Gbps pin)\n")
	r.printf("tRC=%dns tRCD=%dns tRP=%dns tCAS=%dns tRAS=%dns\n",
		int(t.TRCNS), int(t.TRCDNS), int(t.TRPNS), int(t.TCASNS), int(t.TRASNS))
	r.printf("tRRD=%.1fns tWTR=%dns tFAW=%dns tRTP=%dns\n",
		t.TRRDNS, int(t.TWTRNS), int(t.TFAWNS), int(t.TRTPNS))
	r.printf("tWL=%dtCK tBURST=%dtCK tRTRS=%dtCK tCCDL=%dtCK tCCDS=%dtCK\n",
		t.TWL, t.TBURST, t.TRTRS, t.TCCDL, t.TCCDS)
}

func table3(r *runner) {
	r.header("Table III: workloads")
	for _, b := range dramlat.Benchmarks() {
		kind := "regular (§VI-A)"
		if b.Irregular {
			kind = "irregular"
		}
		r.printf("%-14s %-12s %-16s %s\n", b.Name, b.Suite, kind, b.Desc)
	}
}

func fig2(r *runner) {
	r.header("Fig 2: coalescing efficiency (GMC baseline)")
	r.printf("%-10s %18s %14s\n", "bench", ">1-request loads", "reqs/load")
	var fr, rl []float64
	for _, b := range dramlat.IrregularNames() {
		s := r.base(b).Summary
		r.printf("%-10s %17.0f%% %14.2f\n", b, s.MultiReqFrac*100, s.ReqsPerLoad)
		fr = append(fr, s.MultiReqFrac)
		rl = append(rl, s.ReqsPerLoad)
	}
	r.printf("%-10s %17.0f%% %14.2f   (paper: 56%%, 5.9)\n", "MEAN", mean(fr)*100, mean(rl))
}

func fig3(r *runner) {
	r.header("Fig 3: extent of memory latency divergence (GMC baseline)")
	r.printf("%-10s %12s %12s\n", "bench", "last/first", "MCs/warp")
	var lf, mc []float64
	for _, b := range dramlat.IrregularNames() {
		s := r.base(b).Summary
		r.printf("%-10s %11.2fx %12.2f\n", b, s.LastOverFirst, s.AvgMCsTouched)
		lf = append(lf, s.LastOverFirst)
		mc = append(mc, s.AvgMCsTouched)
	}
	r.printf("%-10s %11.2fx %12.2f   (paper: 1.6x, 2.5)\n", "MEAN", mean(lf), mean(mc))
}

func fig4(r *runner) {
	r.header("Fig 4: room for improvement (speedup over GMC)")
	r.printf("%-10s %18s %22s\n", "bench", "perfect coalescing", "zero latency divergence")
	var pc, zd []float64
	for _, b := range dramlat.IrregularNames() {
		base := float64(r.base(b).Ticks)
		p := base / float64(r.run(b, "gmc", true, false, 0.5).Ticks)
		z := base / float64(r.run(b, "gmc", false, true, 0.5).Ticks)
		r.printf("%-10s %17.2fx %21.2fx\n", b, p, z)
		pc = append(pc, p)
		zd = append(zd, z)
	}
	r.printf("%-10s %17.2fx %21.2fx   (paper: ~5x, ~1.43x)\n", "GEOMEAN", geomean(pc), geomean(zd))
}

func fig8(r *runner) {
	r.header("Fig 8: performance normalized to GMC")
	scheds := dramlat.WarpAwareSchedulers()
	r.printf("%-10s", "bench")
	for _, s := range scheds {
		r.printf(" %8s", s)
	}
	r.println()
	agg := map[string][]float64{}
	for _, b := range dramlat.IrregularNames() {
		r.printf("%-10s", b)
		for _, s := range scheds {
			sp := r.speedup(b, s)
			agg[s] = append(agg[s], sp)
			r.printf(" %8.3f", sp)
		}
		r.println()
	}
	r.printf("%-10s", "GEOMEAN")
	for _, s := range scheds {
		r.printf(" %8.3f", geomean(agg[s]))
	}
	r.println("\npaper means: wg 1.034, wg-m 1.062, wg-bw 1.084, wg-w 1.101")
}

func fig9(r *runner) {
	r.header("Fig 9: effective main-memory latency (normalized to GMC)")
	scheds := dramlat.WarpAwareSchedulers()
	r.printf("%-10s", "bench")
	for _, s := range scheds {
		r.printf(" %8s", s)
	}
	r.println()
	agg := map[string][]float64{}
	for _, b := range dramlat.IrregularNames() {
		r.printf("%-10s", b)
		base := r.base(b).Summary.EffectiveLatency
		for _, s := range scheds {
			v := r.run(b, s, false, false, 0.5).Summary.EffectiveLatency / base
			agg[s] = append(agg[s], v)
			r.printf(" %8.3f", v)
		}
		r.println()
	}
	r.printf("%-10s", "GEOMEAN")
	for _, s := range scheds {
		r.printf(" %8.3f", geomean(agg[s]))
	}
	r.println("\npaper: wg -9.1% (0.909), wg-m -16.9% (0.831)")
}

func fig10(r *runner) {
	r.header("Fig 10: DRAM latency divergence (first-to-last gap, ticks)")
	scheds := append([]string{"gmc"}, dramlat.WarpAwareSchedulers()...)
	r.printf("%-10s", "bench")
	for _, s := range scheds {
		r.printf(" %8s", s)
	}
	r.println()
	for _, b := range dramlat.IrregularNames() {
		r.printf("%-10s", b)
		for _, s := range scheds {
			r.printf(" %8.0f", r.run(b, s, false, false, 0.5).Summary.DivergenceGap)
		}
		r.println()
	}
}

func fig11(r *runner) {
	r.header("Fig 11: DRAM bandwidth utilization")
	scheds := append([]string{"gmc"}, dramlat.WarpAwareSchedulers()...)
	r.printf("%-10s", "bench")
	for _, s := range scheds {
		r.printf(" %8s", s)
	}
	r.println()
	agg := map[string][]float64{}
	for _, b := range dramlat.IrregularNames() {
		r.printf("%-10s", b)
		for _, s := range scheds {
			u := r.run(b, s, false, false, 0.5).Utilization
			agg[s] = append(agg[s], u)
			r.printf(" %7.1f%%", u*100)
		}
		r.println()
	}
	r.printf("%-10s", "MEAN")
	for _, s := range scheds {
		r.printf(" %7.1f%%", mean(agg[s])*100)
	}
	r.println("\npaper: wg-bw recovers >14% of the bandwidth wg-m loses")
}

func fig12(r *runner) {
	r.header("Fig 12: write intensity and drain-stalled warp-groups (wg-w)")
	r.printf("%-10s %12s %22s\n", "bench", "write frac", "unit/orphan stalled")
	for _, b := range dramlat.IrregularNames() {
		res := r.run(b, "wg-w", false, false, 0.5)
		frac := 0.0
		if res.DrainStalledGroups > 0 {
			frac = float64(res.DrainStalledUnitOrOrphan) / float64(res.DrainStalledGroups)
		}
		r.printf("%-10s %11.1f%% %21.1f%%\n", b, res.WriteFrac*100, frac*100)
	}
}

func regular(r *runner) {
	r.header("Section VI-A: non-divergent applications (wg-w vs GMC)")
	r.printf("%-14s %10s\n", "bench", "speedup")
	var sp []float64
	worst := math.Inf(1)
	for _, b := range dramlat.RegularNames() {
		s := r.speedup(b, "wg-w")
		sp = append(sp, s)
		if s < worst {
			worst = s
		}
		r.printf("%-14s %10.3f\n", b, s)
	}
	r.printf("%-14s %10.3f   worst %.3f   (paper: +1.8%%, no slowdowns)\n",
		"GEOMEAN", geomean(sp), worst)
}

func powerExp(r *runner) {
	r.header("Section VI-B: row-hit rate and GDDR5 power (wg-w vs GMC)")
	var hitDeltas, pwDeltas []float64
	r.printf("%-10s %12s %12s %12s\n", "bench", "gmc hit", "wg-w hit", "power delta")
	for _, b := range dramlat.IrregularNames() {
		g := r.base(b)
		w := r.run(b, "wg-w", false, false, 0.5)
		pg := dramlat.EstimatePower(g)
		pw := dramlat.EstimatePower(w)
		d := pw.TotalMW/pg.TotalMW - 1
		r.printf("%-10s %11.1f%% %11.1f%% %+11.2f%%\n",
			b, g.RowHitRate*100, w.RowHitRate*100, d*100)
		if g.RowHitRate > 0 {
			hitDeltas = append(hitDeltas, w.RowHitRate/g.RowHitRate-1)
		}
		pwDeltas = append(pwDeltas, d)
	}
	r.printf("MEAN hit-rate change %+.1f%%, power change %+.2f%%   (paper: -16%%, +1.8%%)\n",
		mean(hitDeltas)*100, mean(pwDeltas)*100)
}

func sbwas(r *runner) {
	r.header("Section VI-C1: SBWAS (alpha profiled per benchmark)")
	r.printf("%-10s %8s %8s\n", "bench", "alpha", "speedup")
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
		r.printf("%-10s %8.2f %8.3f\n", b, bestA, best)
	}
	r.printf("%-10s %8s %8.3f   (paper: +2.51%%)\n", "GEOMEAN", "", geomean(sp))
}

func wafcfs(r *runner) {
	r.header("Section VI-C2: WAFCFS (Yuan et al.)")
	r.printf("%-10s %8s\n", "bench", "speedup")
	var sp []float64
	for _, b := range dramlat.IrregularNames() {
		s := r.speedup(b, "wafcfs")
		sp = append(sp, s)
		r.printf("%-10s %8.3f\n", b, s)
	}
	r.printf("%-10s %8.3f   (paper: 0.888, an 11.2%% degradation)\n", "GEOMEAN", geomean(sp))
}

func util1bank(r *runner) {
	r.header("Section IV-D: single-bank utilization model")
	t := dramlat.Timing()
	var ns []int
	for n := 1; n <= 31; n *= 2 {
		ns = append(ns, n)
	}
	ns = append(ns, 31)
	sort.Ints(ns)
	for _, n := range ns {
		bar := strings.Repeat("#", int(t.SingleBankUtilization(n)*50))
		r.printf("n=%-4d %5.1f%% %s\n", n, t.SingleBankUtilization(n)*100, bar)
	}
}

// cpusched runs the CPU memory schedulers the paper argues are ill-suited
// to warp-level divergence (Section VI-C3): PAR-BS batches mix warps, and
// ATLAS coordinates at quanta far coarser than a warp's lifetime.
func cpusched(r *runner) {
	r.header("Section VI-C3: CPU memory schedulers (PAR-BS, ATLAS) vs GMC")
	r.printf("%-10s %8s %8s %8s\n", "bench", "parbs", "atlas", "wg-w")
	aggP, aggA, aggW := []float64{}, []float64{}, []float64{}
	for _, b := range dramlat.IrregularNames() {
		p := r.speedup(b, "parbs")
		a := r.speedup(b, "atlas")
		w := r.speedup(b, "wg-w")
		aggP = append(aggP, p)
		aggA = append(aggA, a)
		aggW = append(aggW, w)
		r.printf("%-10s %8.3f %8.3f %8.3f\n", b, p, a, w)
	}
	r.printf("%-10s %8.3f %8.3f %8.3f\n", "GEOMEAN", geomean(aggP), geomean(aggA), geomean(aggW))
	r.println("(the paper argues thread-centric CPU policies cannot reduce")
	r.println(" warp latency divergence; they should trail the wg family)")
}

// extension runs the shared-data warp-group priority sketched in the
// paper's conclusion (wg-sh = wg-w + multi-warp-demand priority).
func extension(r *runner) {
	r.header("Conclusion extension: shared-data warp-group priority (wg-sh)")
	r.printf("%-10s %8s %8s\n", "bench", "wg-w", "wg-sh")
	var a, b2 []float64
	for _, b := range dramlat.IrregularNames() {
		w := r.speedup(b, "wg-w")
		sh := r.speedup(b, "wg-sh")
		a = append(a, w)
		b2 = append(b2, sh)
		r.printf("%-10s %8.3f %8.3f\n", b, w, sh)
	}
	r.printf("%-10s %8.3f %8.3f\n", "GEOMEAN", geomean(a), geomean(b2))
}

// motivation quantifies the Section III-A argument that multithreading
// cannot hide divergence-induced stalls: the fraction of core cycles where
// an SM had live warps but none ready to issue.
func motivation(r *runner) {
	r.header("Section III-A: SM idle cycles (all warps stalled) under GMC")
	r.printf("%-10s %12s %12s\n", "bench", "idle frac", "L1 hit rate")
	var idle []float64
	for _, b := range dramlat.IrregularNames() {
		res := r.base(b)
		idle = append(idle, res.SMIdleFrac)
		r.printf("%-10s %11.1f%% %11.1f%%\n", b, res.SMIdleFrac*100, res.L1HitRate*100)
	}
	r.printf("%-10s %11.1f%%\n", "MEAN", mean(idle)*100)
	r.println("(previous studies [18],[27]: cores frequently sit idle with all")
	r.println(" warps stalled on memory; caches have poor hit rates under")
	r.println(" thousands of concurrent threads)")
}

// sensitivity sweeps the queue depths that control how much reordering
// freedom the warp-aware scheduler has: the read queue (Table II: 64) and
// the per-bank command queue. The warp-aware gain should grow with queue
// depth - with shallow queues there is nothing to reorder.
func sensitivity(r *runner) {
	r.header("Sensitivity: wg-w speedup over GMC vs read-queue depth")
	benches := []string{"spmv", "kmeans"}
	r.printf("%-16s", "readQ")
	for _, b := range benches {
		r.printf(" %10s", b)
	}
	r.println()
	runOne := func(b, sched string, rq int) int64 {
		sp := r.spec(b, sched, false, false, 0.5)
		sp.ReadQ = rq
		return r.lookup(sp).Ticks
	}
	for _, rq := range []int{16, 32, 64, 128} {
		r.printf("%-16d", rq)
		for _, b := range benches {
			sp := float64(runOne(b, "gmc", rq)) / float64(runOne(b, "wg-w", rq))
			r.printf(" %10.3f", sp)
		}
		r.println()
	}
	r.println("(deeper queues give the warp-aware scheduler more to reorder)")
}

// ablation quantifies the warp-aware design choices DESIGN.md calls out:
// bank-aware scoring vs raw request counts, orphan control, and the L2
// group-complete credits, each measured as a slowdown of wg-bw on four
// representative irregular benchmarks.
func ablation(r *runner) {
	r.header("Ablation: warp-aware design choices (slowdown of wg-bw when removed)")
	benches := []string{"bfs", "kmeans", "spmv", "sssp"}
	for _, ab := range []string{"count-score", "no-orphan", "no-credits"} {
		sub := *r
		sub.ablation = ab
		var slow []float64
		r.printf("%-14s", ab)
		for _, b := range benches {
			full := float64(r.run(b, "wg-bw", false, false, 0.5).Ticks)
			abl := float64(sub.run(b, "wg-bw", false, false, 0.5).Ticks)
			slow = append(slow, abl/full)
			r.printf(" %s=%.3f", b, abl/full)
		}
		r.printf("  geomean=%.3f\n", geomean(slow))
	}
	r.println("(values > 1.000 mean the removed mechanism was helping)")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
