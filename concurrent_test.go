package dramlat_test

import (
	"reflect"
	"strconv"
	"testing"

	"dramlat"
	"dramlat/internal/sweep"
)

// TestParallelMatchesEvent covers the parallelism the simulator relies on:
// the sweep engine running many simulations at once in one process. For
// every scheduler and an irregular-workload cross-section, at both the
// paper's 30-SM machine and a 120-SM scale-up, the whole grid runs on a
// multi-worker sweep, and each Results must be byte-identical to a lone
// serial run of the event engine. A mismatch means two simulations share
// mutable state, such as a package-level pool, ID counter or cache.
func TestParallelMatchesEvent(t *testing.T) {
	workloads := []string{"bfs", "spmv", "cfd"}
	smCounts := []int{30, 120}
	if testing.Short() {
		workloads = []string{"bfs"}
		smCounts = []int{30}
	}
	var specs []dramlat.RunSpec
	var names []string
	for _, sched := range dramlat.Schedulers() {
		for _, wl := range workloads {
			for _, sms := range smCounts {
				specs = append(specs, dramlat.RunSpec{
					Benchmark: wl, Scheduler: sched,
					Scale: 0.02, SMs: sms, WarpsPerSM: 8,
				})
				names = append(names, sched+"/"+wl+"/sm"+strconv.Itoa(sms))
			}
		}
	}
	rep := (&sweep.Engine{Workers: 4}).Run(specs)
	for i, spec := range specs {
		par := rep.Outcomes[i]
		t.Run(names[i], func(t *testing.T) {
			if par.Err != nil {
				t.Fatalf("parallel run: %v", par.Err)
			}
			serial, err := dramlat.Run(spec)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if !reflect.DeepEqual(serial, par.Results) {
				t.Fatalf("results diverge\nserial:   %+v\nparallel: %+v", serial, par.Results)
			}
		})
	}
}
