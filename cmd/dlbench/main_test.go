package main

import (
	"io"
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
		r := runner{scale: 0.05, sms: 2, warps: 4, seed: 1, seeds: seeds}
		for _, e := range experiments {
			exps := []experiment{e}
			specs := play(r, exps, nil, io.Discard)
			results := make(map[string]dramlat.Results, len(specs))
			for _, sp := range specs {
				results[sp.Hash()] = dramlat.Results{Ticks: 1}
			}
			if err := render(r, exps, results, io.Discard); err != nil {
				t.Errorf("%s with -seeds %d: %v", e.name, seeds, err)
			}
		}
	}
}

// TestRenderNamesMissingSpec: a render-pass request for a spec the results
// lack is an error that names the spec, and no table is written.
func TestRenderNamesMissingSpec(t *testing.T) {
	r := runner{scale: 0.05, sms: 2, warps: 4, seed: 1, seeds: 1}
	exps := []experiment{{"fig12", fig12}}
	specs := play(r, exps, nil, io.Discard)
	if len(specs) < 2 {
		t.Fatalf("fig12 collected %d specs", len(specs))
	}
	results := map[string]dramlat.Results{}
	for _, sp := range specs[1:] {
		results[sp.Hash()] = dramlat.Results{Ticks: 1}
	}
	var out strings.Builder
	err := render(r, exps, results, &out)
	name, _ := specs[0].CanonicalJSON()
	if err == nil || !strings.Contains(err.Error(), string(name)) {
		t.Fatalf("render error %v does not name %s", err, name)
	}
	if out.Len() != 0 {
		t.Fatalf("render wrote %d bytes despite a missing spec", out.Len())
	}
}
