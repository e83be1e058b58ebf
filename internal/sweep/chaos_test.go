package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"dramlat"
	"dramlat/internal/guard/chaos"
)

// A corrupted cache entry must be detected by the checksum, quarantined
// to <path>.corrupt and reported as a miss — never served as results.
func TestCacheCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	res := dramlat.Results{Ticks: 123, Instr: 456, IPC: 3.7, Drained: true}
	if err := c.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	path := c.path(spec.Hash())
	if err := chaos.CorruptFile(path, 42); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(spec); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still shadows the slot")
	}
	// The slot is writable again and round-trips.
	if err := c.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(spec); !ok || got != res {
		t.Fatalf("re-put after quarantine: ok=%v got=%+v", ok, got)
	}
}

// A legacy entry (pre-checksum format) is quarantined rather than
// trusted: its integrity cannot be verified.
func TestCacheLegacyEntryQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	if err := c.Put(spec, dramlat.Results{Ticks: 7}); err != nil {
		t.Fatal(err)
	}
	path := c.path(spec.Hash())
	// Rewrite the file without its checksum field, emulating an entry
	// written by an older build.
	var raw map[string]json.RawMessage
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "checksum")
	b, _ = json.Marshal(raw)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(spec); ok {
		t.Fatal("unverifiable legacy entry served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("legacy entry not quarantined: %v", err)
	}
}

// Cancelling a sweep's context fails the remaining specs with ctx.Err()
// while the report still covers every spec — and nothing hangs.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	runner := func(s dramlat.RunSpec) (dramlat.Results, error) {
		started.Add(1)
		select {
		case <-s.Stop: // wired to ctx.Done() by the engine
			return dramlat.Results{}, context.Canceled
		case <-release:
			return dramlat.Results{Drained: true}, nil
		}
	}
	specs := []dramlat.RunSpec{
		{Benchmark: "a", Seed: 1}, {Benchmark: "b", Seed: 2},
		{Benchmark: "c", Seed: 3}, {Benchmark: "d", Seed: 4},
	}
	go func() {
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rep := (&Engine{Workers: 2, Runner: runner}).RunContext(ctx, specs)
	if len(rep.Outcomes) != len(specs) {
		t.Fatalf("report covers %d of %d specs", len(rep.Outcomes), len(specs))
	}
	if rep.Failed == 0 {
		t.Fatal("cancelled sweep reports no failures")
	}
	for i, o := range rep.Outcomes {
		if o.Err == nil {
			t.Fatalf("spec %d completed after cancellation", i)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("spec %d: err %v is not context.Canceled", i, o.Err)
		}
	}
}

// A pre-cancelled context fast-fails every spec without invoking the
// runner or the cache at all.
func TestSweepPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	runner := func(dramlat.RunSpec) (dramlat.Results, error) {
		ran.Add(1)
		return dramlat.Results{}, nil
	}
	specs := []dramlat.RunSpec{{Benchmark: "a"}, {Benchmark: "b"}}
	rep := (&Engine{Workers: 2, Runner: runner}).RunContext(ctx, specs)
	if ran.Load() != 0 {
		t.Fatalf("runner invoked %d times after cancellation", ran.Load())
	}
	if rep.Failed != len(specs) {
		t.Fatalf("failed=%d, want %d", rep.Failed, len(specs))
	}
}

// RunTimeout turns a wedged simulation into a deadline StallError
// outcome: aggregated like a failure, never cached, sweep continues.
func TestSweepRunTimeout(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	hang := dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc", Scale: 0.05, SMs: 2, WarpsPerSM: 4,
		StallCycles: -1, // progress watchdog off: only the deadline can end it
		Chaos:       &dramlat.Faults{WakeTarget: chaos.TargetPartition, WakeIndex: 0, WakeAfter: 100}}
	ok := dramlat.RunSpec{Benchmark: "spmv", Scheduler: "gmc", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	eng := &Engine{Workers: 2, Cache: c, RunTimeout: 50 * time.Millisecond}
	rep := eng.RunContext(context.Background(), []dramlat.RunSpec{hang, ok})
	var stall *dramlat.StallError
	if rep.Outcomes[0].Err == nil || !errors.As(rep.Outcomes[0].Err, &stall) {
		t.Fatalf("hung spec: want *StallError, got %v", rep.Outcomes[0].Err)
	}
	if stall.Kind != dramlat.StallDeadline {
		t.Fatalf("kind = %q", stall.Kind)
	}
	if rep.Outcomes[1].Err != nil {
		t.Fatalf("healthy spec failed: %v", rep.Outcomes[1].Err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d", rep.Failed)
	}
	// The timed-out run must not have been cached; the healthy one must.
	if _, hit := c.Get(hang); hit {
		t.Fatal("timed-out run was cached")
	}
	if _, hit := c.Get(ok); !hit {
		t.Fatal("healthy run missing from the cache")
	}
}
