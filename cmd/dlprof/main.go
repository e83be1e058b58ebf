// Command dlprof profiles a simulation run through the telemetry layer:
// it either runs a benchmark with tracing enabled or consumes a previously
// exported JSONL event trace, then renders the time-resolved story the
// end-of-run scalars hide — per-interval channel/SM tables, the top-K
// straggler warp-groups with their per-request DRAM command history, and
// the divergence-gap histogram (the Fig 10 distribution).
//
// Usage:
//
//	dlprof -bench bfs -sched wg-w -scale 0.05 -sms 4 -warps 8
//	dlprof -bench spmv -sched gmc -sample-every 2000 -intervals
//	dlprof -bench bfs -events bfs.events.jsonl -chrome bfs.trace.json
//	dlprof -read bfs.events.jsonl -top 10 -validate
//
// The -chrome output loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing; -events emits the JSONL schema read back by -read.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"dramlat"
	"dramlat/internal/telemetry"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlprof:", err)
	os.Exit(1)
}

func main() {
	// Trace-consumption mode.
	read := flag.String("read", "", "JSONL event trace to analyze instead of running a simulation")

	// Run mode: spec selection (mirrors cmd/dlsim).
	bench := flag.String("bench", "", "benchmark to run (see dlsim -list)")
	sched := flag.String("sched", "gmc", "memory scheduler")
	scale := flag.Float64("scale", 0.05, "work scale")
	sms := flag.Int("sms", 4, "machine SMs (0 = Table II: 30)")
	warps := flag.Int("warps", 8, "warps per SM (0 = Table II: 32)")
	seed := flag.Int64("seed", 1, "workload seed")
	evcap := flag.Int("cap", 0, "event ring capacity (0 = default 1Mi events)")
	sampleEvery := flag.Int64("sample-every", 0, "snapshot channel/SM gauges every N ticks")

	// Outputs and report shaping.
	events := flag.String("events", "", "write the raw event trace as JSONL")
	chrome := flag.String("chrome", "", "write a Chrome trace_event JSON (Perfetto-loadable)")
	csvPrefix := flag.String("csv", "", "write <prefix>.channels.csv and <prefix>.sms.csv interval tables")
	intervals := flag.Bool("intervals", false, "print the per-interval channel table (needs -sample-every)")
	validate := flag.Bool("validate", false, "check trace invariants (command legality, balanced spans)")
	top := flag.Int("top", 5, "straggler warp-groups to detail (0 disables)")
	hist := flag.Bool("hist", true, "print the divergence-gap histogram")
	flag.Parse()

	switch {
	case *read != "" && *bench != "":
		fail(fmt.Errorf("use exactly one of -read or -bench"))
	case *read != "":
		analyzeFile(*read, *validate, *top, *hist, *chrome, *events)
	case *bench != "":
		runProfile(profileOpts{
			spec: dramlat.RunSpec{
				Benchmark: *bench, Scheduler: *sched, Scale: *scale,
				SMs: *sms, WarpsPerSM: *warps, Seed: *seed,
				Telemetry: dramlat.TelemetryOptions{
					Events: true, EventCap: *evcap, SampleEvery: *sampleEvery,
				},
			},
			events: *events, chrome: *chrome, csvPrefix: *csvPrefix,
			intervals: *intervals, validate: *validate, top: *top, hist: *hist,
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

type profileOpts struct {
	spec           dramlat.RunSpec
	events, chrome string
	csvPrefix      string
	intervals      bool
	validate       bool
	top            int
	hist           bool
}

func runProfile(o profileOpts) {
	res, tel, err := dramlat.RunTelemetry(o.spec)
	if err != nil {
		fail(err)
	}
	evs := tel.Tracer.Events()
	telemetry.SortEvents(evs)

	fmt.Printf("run                  %s/%s scale %g seed %d\n",
		o.spec.Benchmark, o.spec.Scheduler, o.spec.Scale, o.spec.Seed)
	fmt.Printf("kernel ticks         %d\n", res.Ticks)
	fmt.Printf("IPC                  %.3f\n", res.IPC)
	fmt.Printf("events               %d recorded, %d dropped (ring wrap)\n",
		tel.Tracer.Len(), tel.Tracer.Dropped())

	a := telemetry.Analyze(evs)
	fmt.Printf("divergence gap       %.1f ticks (collector) / %.1f ticks (trace)\n",
		res.Summary.DivergenceGap, a.DivergenceGap())
	doValidate := o.validate
	if doValidate && tel.Tracer.Dropped() > 0 {
		fmt.Println("validate             skipped (ring wrapped; raise -cap for a complete trace)")
		doValidate = false
	}
	report(a, evs, doValidate, o.top, o.hist)

	if o.intervals {
		if tel.Sampler == nil {
			fail(fmt.Errorf("-intervals needs -sample-every"))
		}
		printIntervals(tel.Sampler)
	}
	writeOutputs(evs, o.events, o.chrome)
	if o.csvPrefix != "" {
		if tel.Sampler == nil {
			fail(fmt.Errorf("-csv needs -sample-every"))
		}
		writeCSVs(tel.Sampler, o.csvPrefix)
	}
}

func analyzeFile(path string, validate bool, top int, hist bool, chrome, events string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	evs, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	telemetry.SortEvents(evs)
	fmt.Printf("trace                %s (%d events)\n", path, len(evs))
	a := telemetry.Analyze(evs)
	fmt.Printf("divergence gap       %.1f ticks (trace)\n", a.DivergenceGap())
	report(a, evs, validate, top, hist)
	writeOutputs(evs, events, chrome)
}

func report(a *telemetry.Analysis, evs []telemetry.Event, validate bool, top int, hist bool) {
	fmt.Printf("warp-groups          %s\n", a.Summary())
	if validate {
		if err := telemetry.Validate(evs); err != nil {
			fmt.Printf("validate             FAILED\n%v\n", err)
			os.Exit(1)
		}
		fmt.Printf("validate             ok\n")
	}
	if hist {
		printHistogram(a)
	}
	if top > 0 {
		printStragglers(a, top)
	}
}

// printHistogram renders the Fig 10 time-gap distribution.
func printHistogram(a *telemetry.Analysis) {
	bins := a.GapHistogram()
	if len(bins) == 0 {
		fmt.Println("\nno multi-completion warp-groups: no gap histogram")
		return
	}
	total := 0
	maxCount := 0
	for _, b := range bins {
		total += b.Count
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	fmt.Printf("\ndivergence-gap histogram (%d groups, p50 %.0f / p90 %.0f / p99 %.0f ticks):\n",
		total, a.GapPercentile(50), a.GapPercentile(90), a.GapPercentile(99))
	for i, b := range bins {
		label := fmt.Sprintf("[%d,%d)", b.Lo, b.Hi)
		if i == len(bins)-1 {
			label = fmt.Sprintf("[%d,+)", b.Lo)
		}
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", b.Count*40/maxCount)
		}
		fmt.Printf("  %-16s %6d (%5.1f%%) %s\n",
			label, b.Count, 100*float64(b.Count)/float64(total), bar)
	}
}

// printStragglers details the k worst warp-groups with the DRAM command
// history of each of their requests — the per-group view of Fig 3.
func printStragglers(a *telemetry.Analysis, k int) {
	worst := a.Stragglers(k)
	if len(worst) == 0 {
		return
	}
	fmt.Printf("\ntop %d straggler warp-groups:\n", len(worst))
	for _, g := range worst {
		fmt.Printf("  %s: gap %d ticks, %d lines / %d sent, %d channels, issued @%d",
			g.ID, g.Gap(), g.Lines, g.Sent, g.Channels(), g.Issue)
		if g.Unblock >= 0 {
			fmt.Printf(", unblocked @%d", g.Unblock)
		}
		fmt.Println()
		for _, r := range g.Reqs {
			var hist []string
			hist = append(hist, fmt.Sprintf("enq @%d", r.Enq))
			if r.Deq >= 0 {
				hist = append(hist, fmt.Sprintf("deq @%d", r.Deq))
			}
			for _, t := range r.Acts {
				hist = append(hist, fmt.Sprintf("ACT @%d", t))
			}
			for _, t := range r.Bursts {
				hist = append(hist, fmt.Sprintf("RD @%d", t))
			}
			if r.Done >= 0 {
				hist = append(hist, fmt.Sprintf("done @%d", r.Done))
			}
			fmt.Printf("    req %-6d ch%d bank %-2d row %-5d  %s\n",
				r.ID, r.Channel, r.Bank, r.Row, strings.Join(hist, " > "))
		}
	}
}

// printIntervals renders the per-interval channel table.
func printIntervals(s *telemetry.Sampler) {
	rows := s.ChannelIntervals()
	if len(rows) == 0 {
		fmt.Println("\nno complete sampling interval (run shorter than -sample-every)")
		return
	}
	fmt.Println("\nper-interval channel activity:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "interval\tch\trdq\twrq\tacts\trd\twr\thit%\tbusy%\tdrains\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d-%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.0f\t%d\t\n",
			r.Start, r.End, r.Channel, r.ReadQ, r.WriteQ,
			r.ACTs, r.RDBursts, r.WRBursts,
			100*r.RowHitRate, 100*r.BusyFrac, r.DrainsStarted)
	}
	tw.Flush()
}

func writeOutputs(evs []telemetry.Event, eventsPath, chromePath string) {
	if eventsPath != "" {
		writeFile(eventsPath, func(f *os.File) error {
			return telemetry.WriteJSONL(f, evs)
		})
	}
	if chromePath != "" {
		writeFile(chromePath, func(f *os.File) error {
			return telemetry.WriteChromeTrace(f, evs)
		})
	}
}

func writeCSVs(s *telemetry.Sampler, prefix string) {
	writeFile(prefix+".channels.csv", func(f *os.File) error {
		return telemetry.WriteChannelCSV(f, s.ChannelIntervals())
	})
	writeFile(prefix+".sms.csv", func(f *os.File) error {
		return telemetry.WriteSMCSV(f, s.SMIntervals())
	})
}

func writeFile(path string, emit func(f *os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := emit(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "dlprof: wrote %s\n", path)
}
