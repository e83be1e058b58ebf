package experiments

import (
	"strings"
	"testing"

	"dramlat"
)

// TestCollectCoversRender checks the contract dlbench's one sweep rests
// on, without running a simulation: for every experiment, the render pass
// requests only specs the collect pass recorded. The fake results are not
// the zero Results the collect pass saw, so a table whose spec set depends
// on the results it reads shows up as a miss.
func TestCollectCoversRender(t *testing.T) {
	for _, seeds := range []int{1, 2} {
		r := Runner{Scale: 0.05, SMs: 2, Warps: 4, Seed: 1, Seeds: seeds}
		for _, e := range All {
			exps := []Experiment{e}
			specs := r.Collect(exps)
			results := make(map[string]dramlat.Results, len(specs))
			for _, sp := range specs {
				results[sp.Hash()] = dramlat.Results{Ticks: 1}
			}
			if _, err := r.Tables(exps, results); err != nil {
				t.Errorf("%s with -seeds %d: %v", e.Name, seeds, err)
			}
		}
	}
}

// TestRenderNamesMissingSpec: a render-pass request for a spec the results
// lack is an error that names the spec, and no table comes back.
func TestRenderNamesMissingSpec(t *testing.T) {
	r := Runner{Scale: 0.05, SMs: 2, Warps: 4, Seed: 1, Seeds: 1}
	exps := []Experiment{{"fig12", fig12}}
	specs := r.Collect(exps)
	if len(specs) < 2 {
		t.Fatalf("fig12 collected %d specs", len(specs))
	}
	results := map[string]dramlat.Results{}
	for _, sp := range specs[1:] {
		results[sp.Hash()] = dramlat.Results{Ticks: 1}
	}
	tables, err := r.Tables(exps, results)
	name, _ := specs[0].CanonicalJSON()
	if err == nil || !strings.Contains(err.Error(), string(name)) {
		t.Fatalf("render error %v does not name %s", err, name)
	}
	if tables != nil {
		t.Fatalf("render returned %d tables despite a missing spec", len(tables))
	}
}
