package dramlat

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each bench runs the same simulations the dlbench tool uses (at reduced
// scale so `go test -bench=.` stays tractable) and reports the headline
// metric of that experiment via b.ReportMetric. The full-size regeneration
// lives in cmd/dlbench; EXPERIMENTS.md records paper-vs-measured.

import (
	"math"
	"testing"
)

// benchScale keeps `go test -bench=.` to a few minutes: the full Table II
// machine with reduced per-warp work (contention, and therefore divergence,
// is preserved; see EXPERIMENTS.md for full-scale numbers).
const benchScale = 0.2

var resultCache = map[string]Results{}

func benchRun(b *testing.B, bench, sched string, perfect, zerodiv bool, alpha float64) Results {
	b.Helper()
	key := bench + "/" + sched
	if perfect {
		key += "/pc"
	}
	if zerodiv {
		key += "/zd"
	}
	if alpha != 0 {
		key += "/a"
	}
	if res, ok := resultCache[key]; ok {
		return res
	}
	res, err := Run(RunSpec{
		Benchmark: bench, Scheduler: sched, Scale: benchScale,
		PerfectCoalescing: perfect, ZeroDivergence: zerodiv, SBWASAlpha: alpha,
	})
	if err != nil {
		b.Fatal(err)
	}
	resultCache[key] = res
	return res
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// BenchmarkTable1MERB regenerates Table I (31 20 10 7 5 5...).
func BenchmarkTable1MERB(b *testing.B) {
	var tab []int
	for i := 0; i < b.N; i++ {
		tab = MERBTable(16)
	}
	if tab[0] != 31 || tab[1] != 20 || tab[2] != 10 || tab[3] != 7 || tab[4] != 5 {
		b.Fatalf("Table I mismatch: %v", tab)
	}
	b.ReportMetric(float64(tab[1]), "MERB(2banks)")
}

// BenchmarkFig2Coalescing measures coalescing efficiency on the irregular
// suite (paper: 56% multi-request loads, 5.9 requests/load).
func BenchmarkFig2Coalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var multi, rpl float64
		for _, w := range IrregularNames() {
			s := benchRun(b, w, "gmc", false, false, 0).Summary
			multi += s.MultiReqFrac
			rpl += s.ReqsPerLoad
		}
		n := float64(len(IrregularNames()))
		b.ReportMetric(multi/n*100, "multi-req-%")
		b.ReportMetric(rpl/n, "reqs/load")
	}
}

// BenchmarkFig3Divergence measures the last/first latency ratio and MCs
// touched (paper: 1.6x, 2.5).
func BenchmarkFig3Divergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lf, mc float64
		for _, w := range IrregularNames() {
			s := benchRun(b, w, "gmc", false, false, 0).Summary
			lf += s.LastOverFirst
			mc += s.AvgMCsTouched
		}
		n := float64(len(IrregularNames()))
		b.ReportMetric(lf/n, "last/first-x")
		b.ReportMetric(mc/n, "MCs/warp")
	}
}

// BenchmarkFig4Ideal measures the ideal-model speedups (paper: perfect
// coalescing ~5x, zero latency divergence ~1.43x).
func BenchmarkFig4Ideal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var pc, zd []float64
		for _, w := range IrregularNames() {
			base := float64(benchRun(b, w, "gmc", false, false, 0).Ticks)
			pc = append(pc, base/float64(benchRun(b, w, "gmc", true, false, 0).Ticks))
			zd = append(zd, base/float64(benchRun(b, w, "gmc", false, true, 0).Ticks))
		}
		b.ReportMetric(geomean(pc), "perfect-x")
		b.ReportMetric(geomean(zd), "zerodiv-x")
	}
}

// fig8Speedup computes the geomean speedup of a warp-aware policy over the
// GMC baseline across the irregular suite.
func fig8Speedup(b *testing.B, sched string) float64 {
	var sp []float64
	for _, w := range IrregularNames() {
		base := float64(benchRun(b, w, "gmc", false, false, 0).Ticks)
		sp = append(sp, base/float64(benchRun(b, w, sched, false, false, 0).Ticks))
	}
	return geomean(sp)
}

// BenchmarkFig8Speedup measures the headline result (paper: WG +3.4%,
// WG-M +6.2%, WG-Bw +8.4%, WG-W +10.1%).
func BenchmarkFig8Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(fig8Speedup(b, "wg"), "wg-x")
		b.ReportMetric(fig8Speedup(b, "wg-bw"), "wg-bw-x")
		b.ReportMetric(fig8Speedup(b, "wg-w"), "wg-w-x")
	}
}

// BenchmarkFig9EffLatency measures normalized effective memory latency
// (paper: WG 0.909, WG-M 0.831).
func BenchmarkFig9EffLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"wg", "wg-m"} {
			var ratio []float64
			for _, w := range IrregularNames() {
				base := benchRun(b, w, "gmc", false, false, 0).Summary.EffectiveLatency
				v := benchRun(b, w, sched, false, false, 0).Summary.EffectiveLatency
				if base > 0 {
					ratio = append(ratio, v/base)
				}
			}
			b.ReportMetric(geomean(ratio), sched+"-efflat")
		}
	}
}

// BenchmarkFig10Divergence measures the first-to-last DRAM service gap
// reduction of WG-W over GMC.
func BenchmarkFig10Divergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratio []float64
		for _, w := range IrregularNames() {
			base := benchRun(b, w, "gmc", false, false, 0).Summary.DivergenceGap
			v := benchRun(b, w, "wg-w", false, false, 0).Summary.DivergenceGap
			if base > 0 {
				ratio = append(ratio, v/base)
			}
		}
		b.ReportMetric(geomean(ratio), "gap-vs-gmc")
	}
}

// BenchmarkFig11Bandwidth measures utilization recovered by WG-Bw over
// WG-M (paper: >14% relative).
func BenchmarkFig11Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var wgm, wgbw float64
		for _, w := range IrregularNames() {
			wgm += benchRun(b, w, "wg-m", false, false, 0).Utilization
			wgbw += benchRun(b, w, "wg-bw", false, false, 0).Utilization
		}
		b.ReportMetric(wgbw/wgm, "bw-recovery-x")
	}
}

// BenchmarkFig12Writes measures write intensity and the unit/orphan share
// of drain-stalled groups on the write-heavy apps.
func BenchmarkFig12Writes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var wf float64
		var stalled, unit int64
		for _, w := range []string{"nw", "SS", "sad"} {
			res := benchRun(b, w, "wg-w", false, false, 0)
			wf += res.WriteFrac
			stalled += res.DrainStalledGroups
			unit += res.DrainStalledUnitOrOrphan
		}
		b.ReportMetric(wf/3*100, "write-%")
		if stalled > 0 {
			b.ReportMetric(float64(unit)/float64(stalled)*100, "unit-orphan-%")
		}
	}
}

// BenchmarkRegularApps measures the Section VI-A result: no slowdown on
// structured workloads (paper: +1.8%, none slower).
func BenchmarkRegularApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		worst := math.Inf(1)
		for _, w := range RegularNames() {
			base := float64(benchRun(b, w, "gmc", false, false, 0).Ticks)
			s := base / float64(benchRun(b, w, "wg-w", false, false, 0).Ticks)
			sp = append(sp, s)
			if s < worst {
				worst = s
			}
		}
		b.ReportMetric(geomean(sp), "speedup-x")
		b.ReportMetric(worst, "worst-x")
	}
}

// BenchmarkPower measures the Section VI-B sensitivity (paper: +1.8% GDDR5
// power for the row-hit-rate change).
func BenchmarkPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var delta []float64
		for _, w := range IrregularNames() {
			g := benchRun(b, w, "gmc", false, false, 0)
			ww := benchRun(b, w, "wg-w", false, false, 0)
			delta = append(delta, EstimatePower(ww).TotalMW/EstimatePower(g).TotalMW)
		}
		b.ReportMetric((geomean(delta)-1)*100, "power-delta-%")
	}
}

// BenchmarkSBWAS measures the Section VI-C1 comparator (paper: +2.51%).
func BenchmarkSBWAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range IrregularNames() {
			base := float64(benchRun(b, w, "gmc", false, false, 0).Ticks)
			sp = append(sp, base/float64(benchRun(b, w, "sbwas", false, false, 0.5).Ticks))
		}
		b.ReportMetric(geomean(sp), "sbwas-x")
	}
}

// BenchmarkWAFCFS measures the Section VI-C2 comparator (paper: 0.888).
func BenchmarkWAFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range IrregularNames() {
			base := float64(benchRun(b, w, "gmc", false, false, 0).Ticks)
			sp = append(sp, base/float64(benchRun(b, w, "wafcfs", false, false, 0).Ticks))
		}
		b.ReportMetric(geomean(sp), "wafcfs-x")
	}
}

// benchEngine times one full simulation per iteration under the given
// engine and reports simulated-ticks/second; scripts/bench records the
// end-to-end and per-layer numbers for the benchmark workloads.
// Allocation counts are reported so -benchmem tracks the
// request-freelist and ring-buffer hot paths.
func benchEngine(b *testing.B, engine string) {
	b.ReportAllocs()
	var ticks int64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunSpec{
			Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.1, Engine: engine,
		})
		if err != nil {
			b.Fatal(err)
		}
		ticks += res.Ticks
	}
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "sim-ticks/s")
}

// BenchmarkRunEventDriven times the event engine.
func BenchmarkRunEventDriven(b *testing.B) { benchEngine(b, "event") }

// BenchmarkRunSampled times the interval-sampling engine at full scale
// (scale 0.1 kernels end inside the settle prefix, leaving nothing to
// sample); the ratio to an equally scaled exact run is the statistical
// fast-forward speedup. The speedup-vs-error record lives in the
// spmv-sampled workload of scripts/bench.
func BenchmarkRunSampled(b *testing.B) {
	b.ReportAllocs()
	var ticks int64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunSpec{
			Benchmark: "bfs", Scheduler: "wg-w", Engine: "sampled",
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Approximate || res.Sampling == nil || res.Sampling.Windows < 1 {
			b.Fatalf("sampled run measured no windows: %+v", res.Sampling)
		}
		ticks += res.Ticks
	}
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "sim-ticks/s")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (ticks/s) —
// an engineering metric, not a paper figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var ticks int64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunSpec{Benchmark: "spmv", Scheduler: "gmc", Scale: 0.1, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		ticks += res.Ticks
	}
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "sim-ticks/s")
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

func ablationSpeedup(b *testing.B, ablation string) float64 {
	var sp []float64
	for _, w := range []string{"bfs", "kmeans", "spmv", "sssp"} {
		full := float64(benchRun(b, w, "wg-bw", false, false, 0).Ticks)
		res, err := Run(RunSpec{
			Benchmark: w, Scheduler: "wg-bw", Scale: benchScale, Ablation: ablation,
		})
		if err != nil {
			b.Fatal(err)
		}
		sp = append(sp, float64(res.Ticks)/full) // >1 means the ablation is slower
	}
	return geomean(sp)
}

// BenchmarkAblationCountScore replaces the bank-state-aware completion-time
// score with a raw request count (Section IV-B argues this is inadequate).
func BenchmarkAblationCountScore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationSpeedup(b, "count-score"), "slowdown-x")
	}
}

// BenchmarkAblationNoOrphan disables the IV-D orphan-control rule.
func BenchmarkAblationNoOrphan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationSpeedup(b, "no-orphan"), "slowdown-x")
	}
}

// BenchmarkAblationNoCredits drops the L2 group-complete credits, leaving
// only the age fallback to complete groups whose tagged request was
// filtered upstream.
func BenchmarkAblationNoCredits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationSpeedup(b, "no-credits"), "slowdown-x")
	}
}
