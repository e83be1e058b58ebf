package dramlat_test

import (
	"reflect"
	"testing"

	"dramlat"
	"dramlat/internal/gpu"
	"dramlat/internal/telemetry"
	"dramlat/internal/workload"
)

// newSystem assembles cfg's machine running bench at scale, as
// dramlat.Run would.
func newSystem(t *testing.T, cfg gpu.Config, bench string, scale float64) *gpu.System {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultParams()
	p.NumSMs = cfg.NumSMs
	p.WarpsPerSM = cfg.WarpsPerSM
	p.Scale = scale
	sys, err := gpu.NewSystem(cfg, b.Build(p))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runBoth executes the same spec on the dense oracle and on the event
// engine and returns the two systems (for their telemetry) and results.
func runBoth(t *testing.T, spec dramlat.RunSpec) (dsys, esys *gpu.System, dense, event gpu.Results) {
	t.Helper()
	return runBothConfig(t, dramlat.Config(spec), spec.Benchmark, spec.Scale)
}

// runBothConfig is runBoth for a machine config no RunSpec can express.
func runBothConfig(t *testing.T, cfg gpu.Config, bench string, scale float64) (dsys, esys *gpu.System, dense, event gpu.Results) {
	t.Helper()
	dsys = newSystem(t, cfg, bench, scale)
	esys = newSystem(t, cfg, bench, scale)
	dense, err := dsys.RunDense()
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	event, err = esys.Run()
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	return dsys, esys, dense, event
}

// TestEventDrivenMatchesDense is the differential proof behind the
// event engine: for every scheduler, with telemetry off and on, the
// stepper, which ticks only the components whose wakeup has come due,
// must produce Results byte-identical to the dense oracle, which ticks
// every component every cycle. Any mismatch means a component reported
// a wakeup tick later than its first real state change. The sm120 rows
// run spmv on a 120-SM scale-up, where most SMs sit idle between
// responses and the stepper skips the most component ticks. The
// backpressure rows fill crossbar FIFOs and L1 MSHRs, so SM replay
// heads block and sleep until a slot frees or a response lands; their
// SM samples pin the idle-stall split that CatchUp batches across those
// sleeps, which Results do not carry. The lowocc rows run bfs on 120
// SMs with one warp each, the bfs-lowocc benchmark's shape, so each
// crossbar port's queued-SM mask spans two 64-bit words and ports often
// wait on traffic still in flight; wafcfs takes the NoInterleave port
// path.
func TestEventDrivenMatchesDense(t *testing.T) {
	workloads := []string{"bfs", "streamcluster"}
	for _, sched := range gpu.Schedulers() {
		for _, wl := range workloads {
			spec := dramlat.RunSpec{
				Benchmark: wl, Scheduler: sched,
				Scale: 0.05, SMs: 6, WarpsPerSM: 8,
			}
			t.Run(sched+"/"+wl, func(t *testing.T) {
				_, _, dense, event := runBoth(t, spec)
				if !reflect.DeepEqual(dense, event) {
					t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
				}
			})
			t.Run(sched+"/"+wl+"/telemetry", func(t *testing.T) {
				// 1<<10 events wraps the trace ring, so the engines must
				// also agree on which events it drops.
				for _, eventCap := range []int{1 << 10, 1 << 14} {
					sp := spec
					sp.Telemetry = telemetry.Options{
						Events: true, EventCap: eventCap, SampleEvery: 500,
					}
					dsys, esys, dense, event := runBoth(t, sp)
					matchTelemetry(t, eventCap, dense, event, dsys.Tel, esys.Tel)
				}
			})
		}
		spec := dramlat.RunSpec{
			Benchmark: "spmv", Scheduler: sched,
			Scale: 0.02, SMs: 120, WarpsPerSM: 8,
		}
		t.Run(sched+"/spmv/sm120", func(t *testing.T) {
			_, _, dense, event := runBoth(t, spec)
			if !reflect.DeepEqual(dense, event) {
				t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
	for _, sched := range []string{"gmc", "sbwas", "wafcfs", "wg-w"} {
		spec := dramlat.RunSpec{
			Benchmark: "bfs", Scheduler: sched,
			Scale: 1, SMs: 120, WarpsPerSM: 1,
		}
		t.Run("lowocc/"+sched+"/bfs", func(t *testing.T) {
			_, _, dense, event := runBoth(t, spec)
			if !reflect.DeepEqual(dense, event) {
				t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
	variants := []struct {
		name  string
		tweak func(*gpu.Config)
	}{
		{"default", func(*gpu.Config) {}},
		{"xbarq1", func(c *gpu.Config) { c.XbarQueue = 1 }},
		{"mshr4", func(c *gpu.Config) { c.L1MSHRs = 4 }},
		{"lrr", func(c *gpu.Config) { c.WarpSched = "lrr" }},
	}
	for _, v := range variants {
		for _, wl := range []string{"SS", "spmv"} {
			for _, sched := range []string{"gmc", "wg-w"} {
				t.Run("backpressure/"+v.name+"/"+sched+"/"+wl, func(t *testing.T) {
					cfg := dramlat.Config(dramlat.RunSpec{
						Scheduler: sched, SMs: 6, WarpsPerSM: 8,
						Telemetry: telemetry.Options{SampleEvery: 200},
					})
					v.tweak(&cfg)
					dsys, esys, dense, event := runBothConfig(t, cfg, wl, 0.05)
					if !reflect.DeepEqual(dense, event) {
						t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
					}
					if !reflect.DeepEqual(dsys.Tel.Sampler.SMs, esys.Tel.Sampler.SMs) {
						t.Fatalf("SM samples diverge\ndense: %+v\nevent: %+v",
							dsys.Tel.Sampler.SMs, esys.Tel.Sampler.SMs)
					}
				})
			}
		}
	}
}

// matchTelemetry fails the test unless the two engines' Results, trace
// events, ring drops and interval samples are identical.
func matchTelemetry(t *testing.T, eventCap int, dense, event gpu.Results, dtel, etel *telemetry.Telemetry) {
	t.Helper()
	if !reflect.DeepEqual(dense, event) {
		t.Fatalf("cap %d: results diverge\ndense: %+v\nevent: %+v", eventCap, dense, event)
	}
	if !reflect.DeepEqual(dtel.Tracer.Events(), etel.Tracer.Events()) {
		t.Fatalf("cap %d: trace events diverge", eventCap)
	}
	if d, e := dtel.Tracer.Dropped(), etel.Tracer.Dropped(); d != e {
		t.Fatalf("cap %d: ring drops diverge: dense %d, event %d", eventCap, d, e)
	}
	if !reflect.DeepEqual(dtel.Sampler.SMs, etel.Sampler.SMs) {
		t.Fatalf("cap %d: SM samples diverge\ndense: %+v\nevent: %+v",
			eventCap, dtel.Sampler.SMs, etel.Sampler.SMs)
	}
	if !reflect.DeepEqual(dtel.Sampler.Channels, etel.Sampler.Channels) {
		t.Fatalf("cap %d: channel samples diverge\ndense: %+v\nevent: %+v",
			eventCap, dtel.Sampler.Channels, etel.Sampler.Channels)
	}
	if !reflect.DeepEqual(dtel.Sampler.Globals, etel.Sampler.Globals) {
		t.Fatalf("cap %d: global samples diverge\ndense: %+v\nevent: %+v",
			eventCap, dtel.Sampler.Globals, etel.Sampler.Globals)
	}
}
