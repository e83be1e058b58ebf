package dramlat

import (
	"reflect"
	"testing"

	"dramlat/internal/gpu"
	"dramlat/internal/telemetry"
	"dramlat/internal/workload"
)

// runBoth executes the same spec under both exact engines and returns the two
// result digests plus telemetry bundles.
func runBoth(t *testing.T, spec RunSpec) (dense, event Results, dtel, etel *Telemetry) {
	t.Helper()
	ds := spec
	ds.Engine = gpu.EngineDense
	var err error
	dense, dtel, err = RunTelemetry(ds)
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	es := spec
	es.Engine = gpu.EngineEvent
	event, etel, err = RunTelemetry(es)
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	return dense, event, dtel, etel
}

// TestEventDrivenMatchesDense is the differential proof behind the
// event-driven engine: for every scheduler, with telemetry off and on,
// the next-wakeup loop must produce Results byte-identical to the dense
// reference loop. Any mismatch means a component reported a wakeup tick
// later than its first real state change. The sm120 rows run spmv on a
// 120-SM scale-up, where most SMs sit idle between responses and the
// event engine skips the most component ticks.
func TestEventDrivenMatchesDense(t *testing.T) {
	workloads := []string{"bfs", "streamcluster"}
	for _, sched := range Schedulers() {
		for _, wl := range workloads {
			spec := RunSpec{
				Benchmark: wl, Scheduler: sched,
				Scale: 0.05, SMs: 6, WarpsPerSM: 8,
			}
			t.Run(sched+"/"+wl, func(t *testing.T) {
				dense, event, _, _ := runBoth(t, spec)
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
					dense, event, dtel, etel := runBoth(t, sp)
					matchTelemetry(t, eventCap, dense, event, dtel, etel)
				}
			})
		}
		spec := RunSpec{
			Benchmark: "spmv", Scheduler: sched,
			Scale: 0.02, SMs: 120, WarpsPerSM: 8,
		}
		t.Run(sched+"/spmv/sm120", func(t *testing.T) {
			dense, event, _, _ := runBoth(t, spec)
			if !reflect.DeepEqual(dense, event) {
				t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}

// matchTelemetry fails the test unless the two engines' Results, trace
// events, ring drops and interval samples are identical.
func matchTelemetry(t *testing.T, eventCap int, dense, event Results, dtel, etel *Telemetry) {
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

// TestEventDrivenMatchesDenseRefresh exercises the refresh path, which the
// public RunSpec does not expose: the channel's wakeup must account for the
// tREFI arming tick even while otherwise idle.
func TestEventDrivenMatchesDenseRefresh(t *testing.T) {
	for _, sched := range []string{"gmc", "frfcfs", "wg-w"} {
		t.Run(sched, func(t *testing.T) {
			build := func(engine string) Results {
				cfg := gpu.DefaultConfig()
				cfg.NumSMs = 6
				cfg.WarpsPerSM = 8
				cfg.Scheduler = sched
				cfg.EnableRefresh = true
				cfg.Engine = engine
				p := workload.DefaultParams()
				p.NumSMs = cfg.NumSMs
				p.WarpsPerSM = cfg.WarpsPerSM
				p.Scale = 0.05
				b, err := workload.ByName("bfs")
				if err != nil {
					t.Fatal(err)
				}
				sys, err := gpu.NewSystem(cfg, b.Build(p))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			dense, event := build(gpu.EngineDense), build(gpu.EngineEvent)
			if !reflect.DeepEqual(dense, event) {
				t.Fatalf("results diverge with refresh\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}
