package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dramlat"
)

// tinySpecs is a small real grid: cheap enough for the race detector,
// varied enough to exercise scheduler and seed dimensions.
func tinySpecs() []dramlat.RunSpec {
	g := Grid{
		Benchmarks: []string{"bfs", "spmv"},
		Schedulers: []string{"gmc", "wg-w"},
		Seeds:      []int64{1, 2},
		Scales:     []float64{0.05},
		SMs:        []int{2},
		WarpsPerSM: []int{4},
	}
	return g.Enumerate()
}

func TestGridEnumerate(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"bfs", "spmv", "sssp"},
		Schedulers: []string{"gmc", "wg"},
		Seeds:      []int64{1, 2},
		Extra:      []dramlat.RunSpec{{Benchmark: "sad", Scheduler: "wafcfs"}},
	}
	specs := g.Enumerate()
	if len(specs) != g.Size() || len(specs) != 3*2*2+1 {
		t.Fatalf("enumerated %d specs, Size()=%d", len(specs), g.Size())
	}
	// Benchmarks vary outermost.
	if specs[0].Benchmark != "bfs" || specs[len(specs)-2].Benchmark != "sssp" {
		t.Fatalf("unexpected order: %+v", specs)
	}
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Hash()] = true
	}
	if len(seen) != len(specs) {
		t.Fatalf("hash collision: %d unique of %d", len(seen), len(specs))
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{}).Validate(); err == nil {
		t.Fatal("empty grid accepted")
	}
	if err := (Grid{Benchmarks: []string{"nope"}}).Validate(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := (Grid{Benchmarks: []string{"bfs"}, Schedulers: []string{"nope"}}).Validate(); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if err := (Grid{Benchmarks: []string{"bfs"}, Schedulers: []string{"gmc"}}).Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid(strings.NewReader(
		`{"benchmarks":["bfs"],"schedulers":["gmc","wg-w"],"seeds":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 {
		t.Fatalf("size %d", g.Size())
	}
	if _, err := ParseGrid(strings.NewReader(`{"bogus_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestCanonicalHash(t *testing.T) {
	// Zero-valued defaults and their explicit spellings hash equal.
	a := dramlat.RunSpec{Benchmark: "bfs"}
	b := dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc", Seed: 1,
		Scale: 1.0, SMs: 30, WarpsPerSM: 32, SBWASAlpha: 0.5,
		ReadQ: 64, CmdQueueCap: 4, WarpSched: "gto"}
	if a.Hash() != b.Hash() {
		t.Fatalf("default spec and explicit spec hash differently:\n%s\n%s", a.Hash(), b.Hash())
	}
	c := b
	c.Seed = 2
	if c.Hash() == b.Hash() {
		t.Fatal("different seeds share a hash")
	}
}

// TestParallelDeterminism is the core guarantee: the same grid run with 1
// worker and N workers yields identical Results — tick counts, IPC, the
// whole digest — for every spec.
func TestParallelDeterminism(t *testing.T) {
	specs := tinySpecs()
	serial := (&Engine{Workers: 1}).Run(specs)
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	parallel := (&Engine{Workers: 8}).Run(specs)
	if err := parallel.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		s, p := serial.Outcomes[i].Results, parallel.Outcomes[i].Results
		if s != p {
			t.Errorf("spec %d (%s/%s seed %d): serial and parallel results differ:\nticks %d vs %d, IPC %g vs %g\n%+v\n%+v",
				i, specs[i].Benchmark, specs[i].Scheduler, specs[i].Seed,
				s.Ticks, p.Ticks, s.IPC, p.IPC, s, p)
		}
		// Byte-identical under encoding too (what the cache stores).
		sb, _ := json.Marshal(s)
		pb, _ := json.Marshal(p)
		if !bytes.Equal(sb, pb) {
			t.Errorf("spec %d: JSON encodings differ", i)
		}
	}
	if serial.Executed != len(specs) || parallel.Executed != len(specs) {
		t.Fatalf("executed %d/%d, want all %d", serial.Executed, parallel.Executed, len(specs))
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	if _, ok := c.Get(spec); ok {
		t.Fatal("empty cache claims a hit")
	}
	res := dramlat.Results{Ticks: 123, Instr: 456, IPC: 3.7, Drained: true}
	if err := c.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(spec)
	if !ok || got != res {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	// Equivalent spelling of the same spec hits the same entry.
	alias := spec
	alias.Seed = 1
	alias.Scheduler = "gmc"
	if got, ok := c.Get(alias); !ok || got != res {
		t.Fatal("canonicalized alias missed the cache")
	}
	// Layout: filed under the model version, sharded by hash prefix,
	// and the entry stores the canonical spec.
	h := spec.Hash()
	path := filepath.Join(dir, fmt.Sprintf("v%d", dramlat.ModelVersion), h[:2], h+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	if e.Spec != spec.Canonical() {
		t.Fatalf("stored spec not canonical: %+v", e.Spec)
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d", c.Len())
	}
	// An entry an older model wrote, filed under another version (or
	// none, the layout before versioning), is never served.
	for _, old := range []string{"", fmt.Sprintf("v%d", dramlat.ModelVersion-1)} {
		stale, _ := OpenCache(t.TempDir())
		oldPath := filepath.Join(stale.Dir(), old, h[:2], h+".json")
		if err := os.MkdirAll(filepath.Dir(oldPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oldPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := stale.Get(spec); ok {
			t.Fatalf("entry filed under %q served at model version %d", old, dramlat.ModelVersion)
		}
	}
	// A nil cache is a working no-op.
	var nilc *Cache
	if _, ok := nilc.Get(spec); ok {
		t.Fatal("nil cache hit")
	}
	if err := nilc.Put(spec, res); err != nil {
		t.Fatal(err)
	}
}

// TestSweepResume: a second engine run over the same grid and cache dir
// executes nothing and serves everything from disk, with identical
// results.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	specs := tinySpecs()

	c1, _ := OpenCache(dir)
	var ran atomic.Int64
	counting := func(s dramlat.RunSpec) (dramlat.Results, error) {
		ran.Add(1)
		return dramlat.Run(s)
	}
	first := (&Engine{Workers: 4, Cache: c1, Runner: counting}).Run(specs)
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	if first.Executed != len(specs) || first.Cached != 0 || int(ran.Load()) != len(specs) {
		t.Fatalf("first pass: executed=%d cached=%d ran=%d", first.Executed, first.Cached, ran.Load())
	}

	c2, _ := OpenCache(dir) // fresh handle, same dir: resume
	second := (&Engine{Workers: 4, Cache: c2, Runner: counting}).Run(specs)
	if second.Executed != 0 || second.Cached != len(specs) || int(ran.Load()) != len(specs) {
		t.Fatalf("resume pass: executed=%d cached=%d ran=%d", second.Executed, second.Cached, ran.Load())
	}
	for i := range specs {
		if first.Outcomes[i].Results != second.Outcomes[i].Results {
			t.Fatalf("spec %d: cached results differ from executed", i)
		}
		if !second.Outcomes[i].Cached {
			t.Fatalf("spec %d not marked cached", i)
		}
	}
}

// TestErrorAggregation: one failing spec doesn't kill the sweep; the rest
// complete and the report carries the failure.
func TestErrorAggregation(t *testing.T) {
	boom := errors.New("boom")
	runner := func(s dramlat.RunSpec) (dramlat.Results, error) {
		if s.Benchmark == "bad" {
			return dramlat.Results{}, boom
		}
		return dramlat.Results{Ticks: int64(s.Seed), Drained: true}, nil
	}
	specs := []dramlat.RunSpec{
		{Benchmark: "ok1", Seed: 10},
		{Benchmark: "bad", Seed: 11},
		{Benchmark: "ok2", Seed: 12},
	}
	rep := (&Engine{Workers: 2, Runner: runner}).Run(specs)
	if rep.Failed != 1 || len(rep.Failures()) != 1 {
		t.Fatalf("failed=%d failures=%d", rep.Failed, len(rep.Failures()))
	}
	if !errors.Is(rep.Err(), boom) {
		t.Fatalf("aggregated error %v does not wrap the cause", rep.Err())
	}
	if rep.Outcomes[0].Results.Ticks != 10 || rep.Outcomes[2].Results.Ticks != 12 {
		t.Fatal("healthy specs did not complete")
	}
	if rep.Outcomes[1].Err == nil {
		t.Fatal("failed spec lost its error")
	}
}

// TestDeduplication: hash-equal specs execute once and share results.
func TestDeduplication(t *testing.T) {
	var ran atomic.Int64
	runner := func(s dramlat.RunSpec) (dramlat.Results, error) {
		ran.Add(1)
		return dramlat.Results{Ticks: 99, Drained: true}, nil
	}
	specs := []dramlat.RunSpec{
		{Benchmark: "bfs"},
		{Benchmark: "bfs", Scheduler: "gmc", Seed: 1, Scale: 1.0}, // same canonical spec
		{Benchmark: "bfs", Seed: 2},
	}
	rep := (&Engine{Workers: 4, Runner: runner}).Run(specs)
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d unique specs, want 2", got)
	}
	if rep.Outcomes[1].Results.Ticks != 99 || !rep.Outcomes[1].Cached {
		t.Fatalf("duplicate outcome %+v", rep.Outcomes[1])
	}
	if rep.Executed != 2 || rep.Cached != 1 {
		t.Fatalf("executed=%d cached=%d", rep.Executed, rep.Cached)
	}
}

func TestProgressEvents(t *testing.T) {
	var events []Event
	rep := (&Engine{
		Workers: 3,
		Runner: func(s dramlat.RunSpec) (dramlat.Results, error) {
			return dramlat.Results{Drained: true}, nil
		},
		Progress: func(ev Event) { events = append(events, ev) },
	}).Run([]dramlat.RunSpec{{Benchmark: "a"}, {Benchmark: "b"}, {Benchmark: "c"}})
	if len(events) != 3 {
		t.Fatalf("%d events", len(events))
	}
	last := events[len(events)-1]
	if last.Done != 3 || last.Total != 3 || last.Executed != 3 {
		t.Fatalf("final event %+v", last)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestExportJSONAndCSV(t *testing.T) {
	runner := func(s dramlat.RunSpec) (dramlat.Results, error) {
		if s.Benchmark == "bad" {
			return dramlat.Results{}, fmt.Errorf("exploded")
		}
		return dramlat.Results{Ticks: 42, Instr: 84, IPC: 2, Drained: true}, nil
	}
	rep := (&Engine{Workers: 1, Runner: runner}).Run([]dramlat.RunSpec{
		{Benchmark: "bfs", Scheduler: "wg-w", Seed: 7},
		{Benchmark: "bad"},
	})

	var jb bytes.Buffer
	if err := rep.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Total, Executed, Failed int
		Runs                    []Record
	}
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, jb.String())
	}
	if decoded.Total != 2 || decoded.Failed != 1 || len(decoded.Runs) != 2 {
		t.Fatalf("envelope %+v", decoded)
	}
	r0 := decoded.Runs[0]
	if r0.Benchmark != "bfs" || r0.Scheduler != "wg-w" || r0.Seed != 7 || r0.Ticks != 42 {
		t.Fatalf("record %+v", r0)
	}
	if r0.SMs != 30 || r0.Scale != 1.0 {
		t.Fatalf("record not canonicalized: %+v", r0)
	}
	if decoded.Runs[1].Error == "" {
		t.Fatal("failure lost in export")
	}

	var cb bytes.Buffer
	if err := rep.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines: %d\n%s", len(lines), cb.String())
	}
	if got := len(strings.Split(lines[0], ",")); got != len(csvHeader) {
		t.Fatalf("header width %d vs %d", got, len(csvHeader))
	}
	if !strings.HasPrefix(lines[1], "bfs,wg-w,7,") {
		t.Fatalf("row %q", lines[1])
	}
}

// TestEngineEndToEndWithRealRuns exercises the default runner through the
// cache on a real (tiny) simulation: a second sweep of the same spec is a
// faithful cache hit.
func TestEngineEndToEndWithRealRuns(t *testing.T) {
	c, _ := OpenCache(t.TempDir())
	e := &Engine{Workers: 2, Cache: c}
	specs := []dramlat.RunSpec{{Benchmark: "sad", Scheduler: "gmc", Scale: 0.05, SMs: 2, WarpsPerSM: 4}}
	r1 := e.Run(specs)
	o1 := r1.Outcomes[0]
	if o1.Err != nil || r1.Executed != 1 || o1.Results.Ticks == 0 {
		t.Fatalf("first Run %+v err %v", o1, o1.Err)
	}
	r2 := e.Run(specs)
	o2 := r2.Outcomes[0]
	if o2.Err != nil || !o2.Cached || r2.Cached != 1 || r2.Executed != 0 || o2.Results != o1.Results {
		t.Fatalf("second Run not a faithful cache hit: %s, %+v", r2.Summary(), o2)
	}
}

// recordSpec is a spec whose zero-valued knobs survive a JSON round trip
// unchanged (hash-excluded fields are all zero).
func recordSpec() dramlat.RunSpec {
	return dramlat.RunSpec{Benchmark: "bfs", Scheduler: "wg-w", Seed: 3,
		Scale: 0.25, SMs: 4, WarpsPerSM: 8}
}

func recordResults() dramlat.Results {
	return dramlat.Results{Scheduler: "wg-w", Workload: "bfs",
		Ticks: 1234, Instr: 5678, IPC: 1.5, Drained: true,
		Utilization: 0.42, RowHitRate: 0.6, L2HitRate: 0.3, L1HitRate: 0.2,
		GapP50: 10, GapP90: 90, GapP99: 99, WriteFrac: 0.1}
}

// TestRecordJSONRoundTrip pins the flattened row format dlsweep -o
// writes: a Record survives a JSON round trip unchanged.
func TestRecordJSONRoundTrip(t *testing.T) {
	o := Outcome{Spec: recordSpec(), Hash: recordSpec().Hash(),
		Results: recordResults(), Elapsed: time.Second}
	rec := RecordOf(o)
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Errorf("record round trip:\n orig %+v\n back %+v", rec, back)
	}
	// Failures surface in the record's error column.
	bad := Outcome{Spec: recordSpec(), Err: errors.New("boom")}
	if r := RecordOf(bad); r.Error != "boom" {
		t.Errorf("record error column %q", r.Error)
	}
}
