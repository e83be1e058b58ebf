package sweep

import (
	"reflect"
	"testing"

	"dramlat"
)

// sampledTinySpecs is a small sampled grid: every spec carries a
// non-zero Sampled block (hash-included), with windows short enough
// that each run goes through several measure/jump regions.
func sampledTinySpecs() []dramlat.RunSpec {
	g := Grid{
		Benchmarks: []string{"bfs", "spmv"},
		Schedulers: []string{"gmc", "wg-w"},
		Seeds:      []int64{1, 2},
		Scales:     []float64{4},
		SMs:        []int{4},
		WarpsPerSM: []int{8},
	}
	specs := g.Enumerate()
	for i := range specs {
		specs[i].Sampled = dramlat.SampledOptions{
			WindowCycles: 2000, FastForwardCycles: 8000, WarmupCycles: 1000,
		}
	}
	return specs
}

// A sampled run's RNG streams are keyed on (spec hash, seed, window
// index) — never on goroutine scheduling or process-global state — so
// a sweep must produce byte-identical approximate Results whether one
// worker runs the specs sequentially or N workers race them. This is
// the lockstep contract that lets sampled sweeps with any -workers
// setting share the persistent cache.
func TestSampledSweepLockstepAcrossWorkers(t *testing.T) {
	specs := sampledTinySpecs()
	one := (&Engine{Workers: 1}).Run(specs)
	many := (&Engine{Workers: 8}).Run(specs)
	if one.Failed != 0 || many.Failed != 0 {
		t.Fatalf("failures: 1-worker %d, 8-worker %d", one.Failed, many.Failed)
	}
	for i := range specs {
		a, b := one.Outcomes[i], many.Outcomes[i]
		if !a.Results.Approximate || !b.Results.Approximate {
			t.Fatalf("spec %d: sampled outcome not marked approximate", i)
		}
		if !reflect.DeepEqual(a.Results, b.Results) {
			t.Fatalf("spec %d (%s): 1-worker and 8-worker results diverge:\n a %+v\n b %+v",
				i, specs[i].Hash(), a.Results, b.Results)
		}
	}
}

// Approximate results keep their sampling metadata in the flattened
// Record, so a dlsweep report carries the error bars.
func TestSampledRecordCarriesErrorBars(t *testing.T) {
	spec := sampledTinySpecs()[0]
	o := (&Engine{}).Run([]dramlat.RunSpec{spec}).Outcomes[0]
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	rec := RecordOf(o)
	if !rec.Approximate {
		t.Fatal("record of a sampled outcome is not marked approximate")
	}
	if rec.SamplingWindows < 1 {
		t.Fatalf("record reports %d sampling windows", rec.SamplingWindows)
	}
}
