package sweep

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dramlat"
	"dramlat/internal/telemetry"
)

func TestSweepTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := dramlat.RunSpec{
		Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.05, SMs: 2, WarpsPerSM: 4,
	}
	eng := &Engine{
		Workers: 1,
		Runner:  TraceRunner(dir, dramlat.TelemetryOptions{Events: true, SampleEvery: 200}),
	}
	rep := eng.Run([]dramlat.RunSpec{spec})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 1 {
		t.Fatalf("executed %d, want 1", rep.Executed)
	}

	hash := spec.Hash()
	for _, suffix := range []string{".events.jsonl", ".channels.csv", ".sms.csv"} {
		if _, err := os.Stat(filepath.Join(dir, hash+suffix)); err != nil {
			t.Errorf("missing artifact %s: %v", suffix, err)
		}
	}

	// The emitted trace must parse, validate, and reproduce the run's
	// divergence gap.
	f, err := os.Open(filepath.Join(dir, hash+".events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty event trace")
	}
	telemetry.SortEvents(evs)
	if err := telemetry.Validate(evs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	got := telemetry.Analyze(evs).DivergenceGap()
	want := rep.Outcomes[0].Results.Summary.DivergenceGap
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("trace gap %.6f != collector gap %.6f", got, want)
	}
}

// TestSweepTelemetryHashSharing pins that telemetry options do not change
// the spec hash: traced and untraced runs must share a result-cache entry.
func TestSweepTelemetryHashSharing(t *testing.T) {
	plain := dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc"}
	traced := plain
	traced.Telemetry = dramlat.TelemetryOptions{Events: true, SampleEvery: 100}
	if plain.Hash() != traced.Hash() {
		t.Fatal("telemetry options changed the spec hash")
	}
}

// TestSweepTelemetryRejectsSampled pins TraceRunner's guard: a sampled
// run's fast-forward regions are modeled, so there is no full trace to
// capture. The spec fails with a typed Telemetry field error, leaves no
// (partial) artifact behind and is not cached, so the same spec without
// telemetry still runs later.
func TestSweepTelemetryRejectsSampled(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sampledTinySpecs()[0]
	eng := &Engine{
		Workers: 1,
		Cache:   cache,
		Runner:  TraceRunner(dir, dramlat.TelemetryOptions{Events: true}),
	}
	rep := eng.Run([]dramlat.RunSpec{spec})
	if rep.Failed != 1 || rep.Cached != 0 {
		t.Fatalf("sampled spec with telemetry: %s, want 1 failed", rep.Summary())
	}
	var verr *dramlat.ValidationError
	if !errors.As(rep.Outcomes[0].Err, &verr) {
		t.Fatalf("err = %v, want *ValidationError", rep.Outcomes[0].Err)
	}
	if len(verr.Fields) != 1 || verr.Fields[0].Field != "Telemetry" {
		t.Fatalf("fields = %+v, want one Telemetry field", verr.Fields)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("telemetry dir holds %d files (err %v), want none", len(files), err)
	}
	if _, ok := cache.Get(spec); ok || cache.Len() != 0 {
		t.Fatalf("rejected spec was cached (%d entries)", cache.Len())
	}
}
