package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; bench_test.go keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd metrics are what a user running a reproduction sees. Every
// workload reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_ticks_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"allocs_per_run", "count", "lower"},
}

// perLayer metrics explain the end-to-end ones layer by layer. Every
// workload reports all of them in a traced run; a layer a workload does
// not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Spans the harness times around its calls into each layer.
		{"workload.build_s", "s", "lower"},
		{"gpu.new_system_s", "s", "lower"},
		{"gpu.run_s", "s", "lower"},
		{"sweep.idle_frac", "frac", "lower"},
		{"sweep.spec_p50_s", "s", "lower"},
		{"sweep.spec_p80_s", "s", "lower"},
		// Work counts from Results and System.Engine; they repeat exactly
		// for a given seed.
		{"gpu.sim_ticks", "count", "lower"},
		{"gpu.visited_frac", "frac", "lower"},
		{"gpu.sm_ticks_per_visit", "count", "lower"},
		{"gpu.part_ticks_per_visit", "count", "lower"},
		{"sm.idle_frac", "frac", "lower"},
		{"coalesce.reqs_per_load", "count", "lower"},
		{"cache.l1_hit_rate", "frac", "higher"},
		{"cache.l2_hit_rate", "frac", "higher"},
		{"memctrl.drains_started", "count", "lower"},
		{"memctrl.write_frac", "frac", "lower"},
		{"core.groups_selected", "count", "lower"},
		{"core.merb_fillers", "count", "higher"},
		{"core.unit_rush", "count", "higher"},
		{"coordnet.messages", "count", "lower"},
		{"coordnet.applied", "count", "higher"},
		{"dram.acts", "count", "lower"},
		{"dram.rd_bursts", "count", "lower"},
		{"dram.wr_bursts", "count", "lower"},
		{"dram.row_hit_rate", "frac", "higher"},
		{"dram.utilization", "frac", "higher"},
		{"stats.gap_p50", "ticks", "lower"},
		{"stats.gap_p90", "ticks", "lower"},
		{"stats.gap_p99", "ticks", "lower"},
		{"sampled.windows", "count", "higher"},
		{"sampled.modeled_frac", "frac", "higher"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
		// Accuracy: the sampled engine against the exact one, and the
		// Fig 8 reproduction against the paper.
		{"sampled.ipc_err_pct", "%", "lower"},
		{"sampled.gap_p90_err_pct", "%", "lower"},
		{"sampled.bound_ratio", "ratio", "lower"},
		{"sweep.fig8_mae_pp", "pp", "lower"},
	}
	// Host time per layer from the CPU profile of the traced reps.
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".host_share", "frac", "lower"})
	}
	return append(defs,
		metricDef{"sm.ns_per_sm_tick", "ns", "lower"},
		metricDef{"dram.ns_per_part_tick", "ns", "lower"},
		metricDef{"trace.samples", "count", "higher"},
		metricDef{"trace.coverage", "frac", "higher"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spread is the distance between the first and third quartiles as a
// share of the median: the run-to-run noise a comparison must exceed.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return math.Abs(quantile(xs, 0.75)-quantile(xs, 0.25)) / math.Abs(m)
}
