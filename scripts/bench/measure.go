package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// value is one reported metric: the fastest pass for the end-to-end
// timings, else the median over passes, with the per-pass samples behind
// it when there is more than one.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload's outcome from one invocation.
type result struct {
	Workload      string           `json:"workload"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Passes        int              `json:"passes"`
	ResultsSHA256 string           `json:"results_sha256"`
	Checks        []check          `json:"checks"`
	Metrics       map[string]value `json:"metrics"`
}

func lookupWorkload(name string) (workloadRunner, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// measure runs one workload in this process: setup, then timed passes
// until the budget would be exceeded by one more, then the checks. A
// traced invocation alternates untraced and CPU-profiled passes, so the
// spans come from untraced passes and the profile's overhead shows as the
// difference between the two.
func measure(name string, o opts) (*result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &result{Workload: name}
	record := func(c check) {
		res.Checks = append(res.Checks, c)
		res.Attempted++
		if !c.OK {
			res.Failed++
		}
	}
	if err := w.setup(o); err != nil {
		record(checkOf("setup", err))
		return finishResult(res, nil, nil, o.Trace), nil
	}

	minPasses := 1
	if o.Trace {
		minPasses = 2
	}
	var passes []*pass
	var last time.Duration
	for i := 0; i < minPasses || time.Since(start)+last <= time.Duration(o.Seconds*float64(time.Second)); i++ {
		t0 := time.Now()
		p, err := runPass(w, o, o.Trace && i%2 == 1)
		last = time.Since(t0)
		if p == nil {
			record(checkOf(fmt.Sprintf("pass %d", i+1), err))
			break
		}
		passes = append(passes, p)
		res.Attempted += len(p.runs)
		bad := 0
		for j, r := range p.runs {
			rerr := r.validate()
			if rerr == nil && !bytes.Equal(resultsJSON(r.Results), resultsJSON(passes[0].runs[j].Results)) {
				rerr = fmt.Errorf("Results differ from pass 1")
			}
			if rerr != nil {
				bad++
				if bad == 1 {
					res.Checks = append(res.Checks, check{Name: fmt.Sprintf("pass %d run %d", i+1, j+1), Detail: rerr.Error()})
				}
			}
		}
		res.Failed += bad
		if err != nil && bad == 0 {
			record(checkOf(fmt.Sprintf("pass %d", i+1), err))
		}
	}
	if len(passes) == 0 {
		return finishResult(res, nil, nil, o.Trace), nil
	}
	checks, accuracy := w.finish(o, passes[0])
	for _, c := range checks {
		record(c)
	}
	res.ResultsSHA256 = passes[0].digest()
	return finishResult(res, passes, accuracy, o.Trace), nil
}

// runPass runs one pass with its memory deltas and, when traced, its CPU
// profile. A GC first gives every pass the same starting heap.
func runPass(w workloadRunner, o opts, traced bool) (*pass, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var buf bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
	}
	p, err := w.pass(o)
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if p == nil {
		return nil, err
	}
	p.traced = traced
	p.mem.Mallocs = m1.Mallocs - m0.Mallocs
	p.mem.NumGC = m1.NumGC - m0.NumGC
	p.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	if traced {
		prof, perr := parseCPUProfile(buf.Bytes())
		if perr != nil {
			return nil, perr
		}
		p.prof = prof
	}
	return p, err
}

// finishResult sets the verdict and keeps the metrics of the run's kind:
// end-to-end for an untraced run, per-layer for a traced one.
func finishResult(res *result, passes []*pass, accuracy map[string]float64, traced bool) *result {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Passes = len(passes)
	all := map[string]value{}
	if len(passes) > 0 {
		metrics(all, passes, accuracy)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res.Metrics = map[string]value{}
	for _, d := range defs {
		v, ok := all[d.Name]
		if !ok {
			v = value{Unit: d.Unit}
		}
		res.Metrics[d.Name] = v
	}
	return res
}

// metrics fills in every end-to-end and per-layer metric from the passes.
func metrics(out map[string]value, passes []*pass, accuracy map[string]float64) {
	var plain, traced []*pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	reduce := func(name string, ps []*pass, f func(*pass) float64, stat func([]float64) float64) {
		xs := samplesOf(ps, f)
		v := value{Value: stat(xs), Unit: units[name]}
		if len(xs) > 1 {
			v.Samples = xs
		}
		out[name] = v
	}
	perPass := func(name string, ps []*pass, f func(*pass) float64) { reduce(name, ps, f, median) }
	set := func(name string, x float64) { out[name] = value{Value: x, Unit: units[name]} }

	// End to end, from untraced passes. The timings take the fastest pass:
	// a shared host's speed drifts with other tenants' load, and the
	// fastest pass is the steadiest estimate of what the code costs. Setup,
	// which allocates heavily, slows most under that load; its median pass
	// moved about twice as far between invocations as its fastest.
	reduce("wall_s", plain, func(p *pass) float64 { return p.wall.Seconds() }, slices.Min[[]float64])
	tps := func(p *pass) float64 {
		d := p.span(func(r simRun) time.Duration { return r.Run })
		if p.busy != nil {
			d = p.wall // a sweep's throughput is what the whole pool delivers
		}
		return float64(p.sum(func(r simRun) int64 { return r.Results.Ticks })) / d.Seconds()
	}
	reduce("sim_ticks_per_s", plain, tps, slices.Max[[]float64])
	reduce("setup_s", plain, func(p *pass) float64 {
		return p.span(func(r simRun) time.Duration { return r.Build + r.NewSys }).Seconds()
	}, slices.Min[[]float64])
	perPass("allocs_per_run", plain, func(p *pass) float64 { return float64(p.mem.Mallocs) / float64(len(p.runs)) })
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		set("max_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}

	// Spans.
	perPass("workload.build_s", plain, func(p *pass) float64 { return p.span(func(r simRun) time.Duration { return r.Build }).Seconds() })
	perPass("gpu.new_system_s", plain, func(p *pass) float64 { return p.span(func(r simRun) time.Duration { return r.NewSys }).Seconds() })
	runS := func(p *pass) float64 { return p.span(func(r simRun) time.Duration { return r.Run }).Seconds() }
	perPass("gpu.run_s", plain, runS)
	perPass("sweep.idle_frac", plain, func(p *pass) float64 {
		if p.busy == nil {
			return 0
		}
		var busy time.Duration
		for _, b := range p.busy {
			busy += b
		}
		return 1 - busy.Seconds()/(float64(p.workers)*p.wall.Seconds())
	})
	var specTimes []float64
	for _, p := range plain {
		for _, b := range p.busy {
			specTimes = append(specTimes, b.Seconds())
		}
	}
	set("sweep.spec_p50_s", quantile(specTimes, 0.5))
	set("sweep.spec_p80_s", quantile(specTimes, 0.8))
	perPass("runtime.gc_cycles", plain, func(p *pass) float64 { return float64(p.mem.NumGC) })
	perPass("runtime.alloc_mb", plain, func(p *pass) float64 { return float64(p.mem.TotalAlloc) / (1 << 20) })

	// Work counts, which repeat exactly: take the first pass.
	for name, x := range counts(passes[0].runs) {
		set(name, x)
	}
	for _, name := range []string{"sampled.ipc_err_pct", "sampled.gap_p90_err_pct", "sampled.bound_ratio", "sweep.fig8_mae_pp"} {
		set(name, accuracy[name])
	}

	// Host time per layer, from the traced passes' profiles.
	var nanos, wall float64
	var smTicks, partTicks int64
	layerNanos := map[string]int64{}
	samples := 0
	for _, p := range traced {
		for l, n := range p.prof.LayerNanos() {
			layerNanos[l] += n
		}
		nanos += float64(p.prof.TotalNanos())
		wall += p.wall.Seconds() * 1e9 * float64(p.workers)
		samples += len(p.prof.Samples)
		smTicks += p.sum(func(r simRun) int64 { return r.Engine.SMTicks })
		partTicks += p.sum(func(r simRun) int64 { return r.Engine.PartTicks })
	}
	for _, l := range layers {
		share := 0.0
		if nanos > 0 {
			share = float64(layerNanos[l]) / nanos
		}
		set(l+".host_share", share)
	}
	set("sm.ns_per_sm_tick", ratio(float64(layerNanos["sm"]), float64(smTicks)))
	set("dram.ns_per_part_tick", ratio(float64(layerNanos["dram"]), float64(partTicks)))
	set("trace.samples", float64(samples))
	set("trace.coverage", ratio(nanos, wall))
	overhead := 0.0
	if len(traced) > 0 && len(plain) > 0 {
		overhead = 100 * (median(samplesOf(traced, runS))/median(samplesOf(plain, runS)) - 1)
	}
	set("trace.overhead_pct", overhead)
}

func samplesOf(ps []*pass, f func(*pass) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (p *pass) span(f func(simRun) time.Duration) time.Duration {
	var d time.Duration
	for _, r := range p.runs {
		d += f(r)
	}
	return d
}

func (p *pass) sum(f func(simRun) int64) int64 {
	var n int64
	for _, r := range p.runs {
		n += f(r)
	}
	return n
}

// counts derives the per-layer work counts from a pass's simulations:
// event counts are summed over runs, ratios are taken of the sums where
// the parts are at hand, and otherwise averaged over runs.
func counts(runs []simRun) map[string]float64 {
	var ticks, visited, smTicks, partTicks int64
	var sampledTicks, modeledTicks int64
	var windows int
	var acts, rd, wr, drains, groups, fillers, rush, msgs, applied int64
	var idle, reqs, l1, l2, wfrac, rowHit, util, p50, p90, p99 float64
	for _, r := range runs {
		res := r.Results
		ticks += res.Ticks
		visited += r.Engine.VisitedTicks
		smTicks += r.Engine.SMTicks
		partTicks += r.Engine.PartTicks
		if s := res.Sampling; s != nil {
			windows += s.Windows
			sampledTicks += s.DetailedTicks + s.ModeledTicks
			modeledTicks += s.ModeledTicks
		}
		acts += res.DRAM.ACTs
		rd += res.DRAM.RDBursts
		wr += res.DRAM.WRBursts
		drains += res.DrainsStarted
		groups += res.GroupsSelected
		fillers += res.MERBFillers
		rush += res.UnitRush
		msgs += res.CoordMessages
		applied += res.CoordApplied
		idle += res.SMIdleFrac
		reqs += res.Summary.ReqsPerLoad
		l1 += res.L1HitRate
		l2 += res.L2HitRate
		wfrac += res.WriteFrac
		rowHit += res.RowHitRate
		util += res.Utilization
		p50 += res.GapP50
		p90 += res.GapP90
		p99 += res.GapP99
	}
	n := float64(len(runs))
	return map[string]float64{
		"gpu.sim_ticks":            float64(ticks),
		"gpu.visited_frac":         ratio(float64(visited), float64(ticks+int64(len(runs)))),
		"gpu.sm_ticks_per_visit":   ratio(float64(smTicks), float64(visited)),
		"gpu.part_ticks_per_visit": ratio(float64(partTicks), float64(visited)),
		"sm.idle_frac":             idle / n,
		"coalesce.reqs_per_load":   reqs / n,
		"cache.l1_hit_rate":        l1 / n,
		"cache.l2_hit_rate":        l2 / n,
		"memctrl.drains_started":   float64(drains),
		"memctrl.write_frac":       wfrac / n,
		"core.groups_selected":     float64(groups),
		"core.merb_fillers":        float64(fillers),
		"core.unit_rush":           float64(rush),
		"coordnet.messages":        float64(msgs),
		"coordnet.applied":         float64(applied),
		"dram.acts":                float64(acts),
		"dram.rd_bursts":           float64(rd),
		"dram.wr_bursts":           float64(wr),
		"dram.row_hit_rate":        rowHit / n,
		"dram.utilization":         util / n,
		"stats.gap_p50":            p50 / n,
		"stats.gap_p90":            p90 / n,
		"stats.gap_p99":            p99 / n,
		"sampled.windows":          float64(windows),
		"sampled.modeled_frac":     ratio(float64(modeledTicks), float64(sampledTicks)),
	}
}
