// Command dlsweep runs a declarative sweep grid over dramlat.RunSpec on
// the internal/sweep engine and emits the aggregate as JSON (default) or
// CSV. Grids come from flags or a JSON grid file; results are cached
// persistently, so interrupted or repeated sweeps resume instantly.
//
// Usage:
//
//	dlsweep -bench irregular -sched gmc,wg-w -seeds 1,2,3 -scale 0.25
//	dlsweep -grid grid.json -workers 8 -format csv -o results.csv
//	dlsweep -bench bfs,spmv -sched all -readq 16,32,64,128
//
// Benchmark shorthands: "irregular" (Table III suite), "regular"
// (§VI-A suite), "all". Scheduler shorthands: "wg" (the four warp-aware
// policies), "all".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"dramlat"
	"dramlat/internal/atomicio"
	"dramlat/internal/prof"
	"dramlat/internal/sweep"
)

// stopProf flushes any active profiles before an error exit; main swaps
// in the real stopper once the profiling flags are parsed.
var stopProf = func() {}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlsweep:", err)
	stopProf()
	os.Exit(1)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseList parses a comma list with parse; kind names the element type
// in the error for a bad element.
func parseList[T any](s, kind string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range splitList(s) {
		v, err := parse(p)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", kind, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func parseFloat64(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// expandBenches resolves the -bench shorthands.
func expandBenches(names []string) []string {
	var out []string
	for _, n := range names {
		switch n {
		case "irregular":
			out = append(out, dramlat.IrregularNames()...)
		case "regular":
			out = append(out, dramlat.RegularNames()...)
		case "all":
			out = append(out, dramlat.IrregularNames()...)
			out = append(out, dramlat.RegularNames()...)
		default:
			out = append(out, n)
		}
	}
	return out
}

// expandScheds resolves the -sched shorthands.
func expandScheds(names []string) []string {
	var out []string
	for _, n := range names {
		switch n {
		case "wg":
			out = append(out, dramlat.WarpAwareSchedulers()...)
		case "all":
			out = append(out, dramlat.Schedulers()...)
		default:
			out = append(out, n)
		}
	}
	return out
}

func main() {
	gridFile := flag.String("grid", "", "JSON grid description file (overrides the dimension flags)")
	bench := flag.String("bench", "", "benchmarks: comma list, or irregular/regular/all")
	sched := flag.String("sched", "gmc", "schedulers: comma list, wg (warp-aware four), or all")
	seeds := flag.String("seeds", "", "comma list of workload seeds")
	scales := flag.String("scale", "", "comma list of work scales")
	sms := flag.String("sms", "", "comma list of SM counts")
	warps := flag.String("warps", "", "comma list of warps/SM")
	readqs := flag.String("readq", "", "comma list of read-queue depths")
	cmdqs := flag.String("cmdq", "", "comma list of per-bank command-queue caps")
	alphas := flag.String("alpha", "", "comma list of SBWAS alphas")
	ablations := flag.String("ablation", "", "comma list of ablations (count-score,no-orphan,no-credits)")
	warpscheds := flag.String("warpsched", "", "comma list of SM warp schedulers (gto,lrr)")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none); overruns fail like any other spec")
	cacheDir := flag.String("cache", sweep.DefaultCacheDir(), "persistent result cache dir (\"none\" disables)")
	format := flag.String("format", "json", "output format: json or csv")
	out := flag.String("o", "-", "output file (\"-\" = stdout)")
	quiet := flag.Bool("q", false, "suppress per-run progress on stderr")
	traceDir := flag.String("trace-dir", "", "write per-run telemetry artifacts into this dir (named by spec hash)")
	traceEvents := flag.Bool("trace-events", false, "with -trace-dir: record the event trace (JSONL)")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity (0 = default)")
	sampleEvery := flag.Int64("sample-every", 0, "with -trace-dir: snapshot gauges every N ticks (CSV)")
	pf := prof.Register()
	flag.Parse()
	if err := pf.Start(); err != nil {
		fail(err)
	}
	stopProf = pf.Stop
	defer pf.Stop()

	if *format != "json" && *format != "csv" {
		fail(fmt.Errorf("unknown format %q", *format))
	}

	var g sweep.Grid
	if *gridFile != "" {
		f, err := os.Open(*gridFile)
		if err != nil {
			fail(err)
		}
		g, err = sweep.ParseGrid(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		var err error
		g.Benchmarks = expandBenches(splitList(*bench))
		g.Schedulers = expandScheds(splitList(*sched))
		if g.Seeds, err = parseList(*seeds, "int", parseInt64); err != nil {
			fail(err)
		}
		if g.Scales, err = parseList(*scales, "float", parseFloat64); err != nil {
			fail(err)
		}
		if g.SMs, err = parseList(*sms, "int", strconv.Atoi); err != nil {
			fail(err)
		}
		if g.WarpsPerSM, err = parseList(*warps, "int", strconv.Atoi); err != nil {
			fail(err)
		}
		if g.ReadQs, err = parseList(*readqs, "int", strconv.Atoi); err != nil {
			fail(err)
		}
		if g.CmdQCaps, err = parseList(*cmdqs, "int", strconv.Atoi); err != nil {
			fail(err)
		}
		if g.Alphas, err = parseList(*alphas, "float", parseFloat64); err != nil {
			fail(err)
		}
		g.Ablations = splitList(*ablations)
		g.WarpScheds = splitList(*warpscheds)
		if err = g.Validate(); err != nil {
			fail(err)
		}
	}

	var progress func(sweep.Event)
	if !*quiet {
		progress = func(ev sweep.Event) {
			sp := ev.Outcome.Spec.Canonical()
			state := "ran"
			if ev.Outcome.Cached {
				state = "hit"
			}
			if ev.Outcome.Err != nil {
				state = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "  [%4d/%4d] %s %s/%s seed %d (eta %v)\n",
				ev.Done, ev.Total, state, sp.Benchmark, sp.Scheduler, sp.Seed, ev.ETA.Round(1e8))
		}
	}

	specs := g.Enumerate()
	var cache *sweep.Cache
	if *cacheDir != "" && *cacheDir != "none" {
		var err error
		if cache, err = sweep.OpenCache(*cacheDir); err != nil {
			fail(err)
		}
	}
	eng := &sweep.Engine{Workers: *workers, Cache: cache,
		RunTimeout: *runTimeout, Progress: progress}
	if *traceDir != "" {
		if !*traceEvents && *sampleEvery <= 0 {
			fail(fmt.Errorf("-trace-dir needs -trace-events and/or -sample-every"))
		}
		eng.Runner = sweep.TraceRunner(*traceDir, dramlat.TelemetryOptions{
			Events: *traceEvents, EventCap: *traceCap, SampleEvery: *sampleEvery,
		})
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "dlsweep: %d specs on %d workers (cache: %s)\n",
		len(specs), nw, cache.Dir())

	// First SIGINT/SIGTERM cancels the sweep: in-flight runs abort at
	// their next watchdog check, completed results are already in the
	// cache, and the partial report is still written below — so the same
	// command re-run resumes where it stopped. A second signal kills the
	// process the usual way.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rep := eng.RunContext(ctx, specs)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "dlsweep: interrupted — writing partial report (cached results are kept; re-run to resume)")
	}
	fmt.Fprintln(os.Stderr, "dlsweep:", rep.Summary())

	// Render into a buffer and commit in one step: an interrupt or error
	// mid-render leaves either the whole artifact or the previous one,
	// never a truncated file.
	w := atomicio.Create(*out)
	var err error
	switch *format {
	case "json":
		err = rep.WriteJSON(w)
	case "csv":
		err = rep.WriteCSV(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fail(err)
	}
	if err := w.Commit(); err != nil {
		fail(err)
	}

	if rep.Failed > 0 {
		for _, o := range rep.Failures() {
			if errors.Is(o.Err, context.Canceled) {
				continue // one "interrupted" line beats hundreds of these
			}
			sp := o.Spec.Canonical()
			fmt.Fprintf(os.Stderr, "dlsweep: FAILED %s/%s seed %d: %v\n",
				sp.Benchmark, sp.Scheduler, sp.Seed, o.Err)
		}
		pf.Stop()
		os.Exit(1)
	}
}
