package dramlat

// Engine benchmarks: each times whole simulations and reports simulated
// ticks per second. The paper's tables and figures are regenerated by
// cmd/dlbench; EXPERIMENTS.md records paper-vs-measured.

import "testing"

// BenchmarkRunEventDriven times one full simulation per iteration on
// the exact engine and reports simulated-ticks/second; scripts/bench
// records the end-to-end and per-layer numbers for the benchmark
// workloads. Allocation counts are reported so -benchmem tracks the
// request-freelist and ring-buffer hot paths.
func BenchmarkRunEventDriven(b *testing.B) {
	b.ReportAllocs()
	var ticks int64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunSpec{Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		ticks += res.Ticks
	}
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "sim-ticks/s")
}

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
			Benchmark: "bfs", Scheduler: "wg-w", Sampled: DefaultSampled(),
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
