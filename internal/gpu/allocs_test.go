package gpu_test

import (
	"runtime"
	"testing"

	"dramlat/internal/gpu"
	"dramlat/internal/workload"
)

// TestSystemRunSteadyStateAllocs pins that a whole System allocates per
// machine, not per instruction: the per-package zero-alloc tests use
// fakes without L2 partitions or SM→partition request traffic, so only a
// full System.Run shows what those add. Between scale 2 and scale 8 on 4
// SMs × 8 warps, Run's mallocs may grow by at most 0.05 per extra retired
// instruction: the pools and freelists settle at sizes set by the machine,
// and what is left is mostly the collector's record chunks, one per 256
// warp-loads.
func TestSystemRunSteadyStateAllocs(t *testing.T) {
	cases := []struct{ bench, sched, engine string }{
		{"spmv", "wg-w", ""},
		{"SS", "wg-w", ""},
		{"bfs", "gmc", ""},
		{"bh", "wg-bw", ""},
		{"cfd", "wg-m", ""},
		{"spmv", "gmc", gpu.EngineSampled},
	}
	for _, c := range cases {
		name := c.bench + "/" + c.sched
		if c.engine != "" {
			name += "/" + c.engine
		}
		t.Run(name, func(t *testing.T) {
			b, err := workload.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			run := func(scale float64) (mallocs uint64, instr int64) {
				cfg := gpu.DefaultConfig()
				cfg.NumSMs, cfg.WarpsPerSM = 4, 8
				cfg.Scheduler, cfg.Engine = c.sched, c.engine
				p := workload.Params{NumSMs: 4, WarpsPerSM: 8, WarpSize: cfg.WarpSize, Scale: scale, Seed: 1}
				sys, err := gpu.NewSystem(cfg, b.Build(p))
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := sys.Run()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, res.Instr
			}
			m2, i2 := run(2)
			m8, i8 := run(8)
			if i8 <= i2 {
				t.Fatalf("scale 8 retired %d instructions, scale 2 %d", i8, i2)
			}
			per := (float64(m8) - float64(m2)) / float64(i8-i2)
			t.Logf("Run mallocs %d -> %d over %d -> %d instructions: %.4f per extra instruction", m2, m8, i2, i8, per)
			if per > 0.05 {
				t.Errorf("System.Run allocates %.3f times per extra retired instruction, want <= 0.05", per)
			}
		})
	}
}
