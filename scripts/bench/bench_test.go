package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"dramlat"
)

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) (e2e, layer []benchmarkMetric) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []benchmarkMetric `json:"end_to_end"`
		PerLayer []benchmarkMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f.EndToEnd, f.PerLayer
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names, units and
// directions the harness emits identical to BENCHMARK.json's lists.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	e2e, layer := readSpec(t)
	for _, c := range []struct {
		kind string
		json []benchmarkMetric
		code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if d := c.code[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", c.kind, i, m, d)
			}
		}
	}
}

// TestSmoke runs every workload at a small size, untraced and traced,
// and checks that every check passes and every metric is emitted and
// finite.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	e2e, layer := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(w.name, opts{Seed: 3, Trace: traced, Smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			want := e2e
			if traced {
				want = layer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d checks=%+v",
					w.name, traced, res.Correct, res.Failed, res.Attempted, res.Checks)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, m.Name, v, ok)
				}
			}
			if len(res.ResultsSHA256) != 64 {
				t.Errorf("%s: results_sha256 %q", w.name, res.ResultsSHA256)
			}
		}
	}
}

// TestParseCPUProfile decodes a profile captured around real simulations
// and checks that samples resolve to simulator layers and that the layer
// attribution accounts for every sample.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spec := dramlat.RunSpec{Benchmark: "spmv", Scheduler: "wg-w", Scale: 0.05, Seed: 1}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := simulate(spec); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 || p.TotalNanos() <= 0 {
		t.Fatalf("no samples decoded (%d samples, %d ns)", len(p.Samples), p.TotalNanos())
	}
	var sum int64
	byLayer := p.LayerNanos()
	for l, n := range byLayer {
		if l != "runtime" && layerOf("dramlat/internal/"+l+".f") != l {
			t.Errorf("unknown layer %q", l)
		}
		sum += n
	}
	if sum != p.TotalNanos() {
		t.Errorf("layers sum to %d ns, profile holds %d", sum, p.TotalNanos())
	}
	if byLayer["runtime"] == sum {
		t.Errorf("no sample attributed to a simulator layer: %v", byLayer)
	}
	for _, s := range p.Samples {
		if len(s.Funcs) == 0 || s.Funcs[0] == "" {
			t.Fatalf("sample with unresolved stack: %+v", s)
		}
	}

	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dramlat/internal/sm.(*SM).Tick":                "sm",
		"dramlat/internal/gpu.NewSystem.func1":          "gpu",
		"dramlat/internal/guard/chaos.(*Faults).Asleep": "guard",
		"dramlat/internal/memreq.(*Pool).Get":           "",
		"dramlat.RunTelemetry":                          "",
		"runtime.mallocgc":                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseArgs pins the command line BENCHMARK.json's command is run
// with, and that the budget defaults to its run_seconds.
func TestParseArgs(t *testing.T) {
	c, err := parseArgs([]string{"--workload", "bfs-lowocc", "--seed", "4", "--seconds", "7", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if want := (opts{Seed: 4, Seconds: 7, Trace: true}); c.name != "bfs-lowocc" || c.opts != want {
		t.Errorf("parsed %q %+v, want bfs-lowocc %+v", c.name, c.opts, want)
	}
	if c, err = parseArgs(nil); err != nil || c.Seconds != 0 || c.Seed != 1 {
		t.Errorf("defaults: %+v, %v", c, err)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"report.json"}, {"--nope"}} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	spec, err := readBenchmarkFile()
	if err != nil || spec.RunSeconds < 1 {
		t.Errorf("BENCHMARK.json run_seconds: %+v, %v", spec, err)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) value { return value{Value: v, Samples: []float64{v, v, v}} }
	for _, c := range []struct {
		name     string
		old, cur value
		better   string
		want     string
	}{
		{"within bound", steady(100), steady(105), "lower", "same"},
		{"slower beyond bound", steady(100), steady(115), "lower", "worse"},
		{"faster beyond bound", steady(100), steady(85), "lower", "better"},
		{"higher is better", steady(100), steady(85), "higher", "worse"},
		{"noisy", value{Value: 100, Samples: []float64{80, 100, 120}}, steady(104), "lower", "unresolved"},
		{"noisy but every sample better", value{Value: 100, Samples: []float64{80, 100, 120}}, steady(70), "lower", "better"},
		// The reported value is compared, not the samples' median: the
		// same fastest pass with slower others is the same.
		{"value, not median", value{Value: 100, Samples: []float64{100, 101, 102}},
			value{Value: 100, Samples: []float64{100, 112, 114}}, "lower", "same"},
	} {
		if _, got := verdict(c.old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
