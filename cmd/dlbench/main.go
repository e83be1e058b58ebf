// Command dlbench regenerates every table and figure of the paper's
// evaluation as text tables. -exp names one experiment of
// internal/experiments (-h lists them); "all" runs the full set in
// EXPERIMENTS.md order, the way the EXPERIMENTS.md record is produced.
// The specs the tables request run as one internal/sweep pass, in parallel
// (-workers) through the persistent cache (-cache). A failed run is
// reported at the end instead of killing the sweep. -json exports every
// run backing the tables as machine-readable JSON.
//
// Usage:
//
//	dlbench -exp fig8 [-scale 1] [-sms 30] [-warps 32]
//	dlbench -exp all [-workers 8] [-cache dir|none] [-json out.json]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"dramlat"
	"dramlat/internal/atomicio"
	"dramlat/internal/experiments"
	"dramlat/internal/prof"
	"dramlat/internal/sweep"
)

func main() {
	all := experiments.All
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	exp := flag.String("exp", "all", "experiment id: all, or one of "+strings.Join(names, ", "))
	scale := flag.Float64("scale", 1.0, "work scale")
	sms := flag.Int("sms", 0, "override SMs")
	warps := flag.Int("warps", 0, "override warps/SM")
	seed := flag.Int64("seed", 1, "workload seed")
	seeds := flag.Int("seeds", 1, "average kernel times over this many seeds")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
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

	selected := all
	if *exp != "all" {
		i := slices.IndexFunc(all, func(e experiments.Experiment) bool { return e.Name == *exp })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "dlbench: unknown experiment %q\n", *exp)
			exit(2)
		}
		selected = all[i : i+1]
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
		if cache, err = sweep.OpenCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %v (running uncached)\n", err)
		}
	}
	eng := &sweep.Engine{Workers: *workers, Cache: cache, Progress: progress}
	// SIGINT/SIGTERM cancels the sweep; finished runs are cached and the
	// -json export is still written, so re-running the command resumes.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	r := experiments.Runner{Scale: *scale, SMs: *sms, Warps: *warps, Seed: *seed, Seeds: *seeds}

	specs := r.Collect(selected)
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
	} else {
		tables, err := r.Tables(selected, results)
		if err == nil {
			err = experiments.Render(os.Stdout, tables)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			exit(1)
		}
	}

	if *jsonOut != "" {
		// Committed in one step: an error never leaves a truncated export.
		out := atomicio.Create(*jsonOut)
		err := rep.WriteJSON(out)
		if err == nil {
			err = out.Commit()
		}
		if err != nil {
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
