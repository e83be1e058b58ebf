package dramlat

import (
	"errors"
	"reflect"
	"testing"
)

// exactTinySpec is the small machine the cache-safety and determinism
// tests run on: fast enough to execute many variants, big enough that
// a wrong engine or knob would visibly change the numbers.
func exactTinySpec() RunSpec {
	return RunSpec{
		Benchmark: "spmv", Scheduler: "gmc",
		Scale: 4, SMs: 4, WarpsPerSM: 8, Seed: 3,
	}
}

// sampledTinySpec is exactTinySpec under the sampled engine with small
// windows, so the run goes through several measure/jump regions even on
// a short kernel.
func sampledTinySpec() RunSpec {
	s := exactTinySpec()
	s.Sampled = SampledOptions{
		WindowCycles: 2000, FastForwardCycles: 8000, WarmupCycles: 1000,
	}
	return s
}

// The result cache is keyed on RunSpec.Hash(), so every hash-excluded
// knob MUST be results-neutral: if one of them changed the numbers, a
// run with the knob set would poison the cache entry every other run
// shares. This pins the exclusion set as an enforced contract rather
// than a convention — each variant must keep both the hash and the
// Results of the baseline, byte for byte.
func TestHashExcludedKnobsAreResultNeutral(t *testing.T) {
	base := exactTinySpec()
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := base.Hash()

	variants := []struct {
		name string
		mut  func(*RunSpec)
	}{
		{"max-cycles-sufficient", func(s *RunSpec) { s.MaxCycles = 100_000_000 }},
		{"stall-cycles", func(s *RunSpec) { s.StallCycles = 5_000_000 }},
		{"telemetry", func(s *RunSpec) { s.Telemetry = TelemetryOptions{Events: true, EventCap: 64} }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			spec := exactTinySpec()
			v.mut(&spec)
			if h := spec.Hash(); h != wantHash {
				t.Fatalf("hash-excluded knob changed the hash: %s != %s", h, wantHash)
			}
			got, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hash-excluded knob changed Results:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// The sweep cache is keyed on RunSpec.Hash(), so a hash that drifts —
// through a renamed or added RunSpec field, a changed default, or a
// toolchain whose encoding/json ignores the omitzero tag — silently
// invalidates every existing cache. These values pin the canonical
// encoding of one exact and one sampled spec.
func TestSpecHashGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		spec RunSpec
		want string
	}{
		{"exact", exactTinySpec(), "a1ad37823d0f312f1b1c05a3e914474ea6eaa3af915b362e2eff82b07873bddc"},
		{"sampled", sampledTinySpec(), "ed876ab99d8bf06b44b9f587a9a4b3fb0d87d9e5308780f79becc208ffbe7926"},
	} {
		if got := c.spec.Hash(); got != c.want {
			json, _ := c.spec.CanonicalJSON()
			t.Errorf("%s spec hash = %s, want %s\ncanonical JSON: %s", c.name, got, c.want, json)
		}
	}
}

// The Sampled block selects the sampled engine and is hash-included:
// approximate results must never share a cache entry with exact ones,
// or with sampled runs at different window parameters.
func TestSampledBlockIsHashIncluded(t *testing.T) {
	exact := exactTinySpec()
	sampled := sampledTinySpec()
	if exact.Hash() == sampled.Hash() {
		t.Fatal("sampled spec hashes like the exact spec: approximate results would poison the exact cache entry")
	}
	defaults := exactTinySpec()
	defaults.Sampled = DefaultSampled()
	if defaults.Hash() == exact.Hash() {
		t.Fatal("default Sampled block shares the exact spec's hash")
	}

	// Different window parameters are different statistical models.
	other := sampledTinySpec()
	other.Sampled.WindowCycles *= 2
	if other.Hash() == sampled.Hash() {
		t.Fatal("different WindowCycles share a hash")
	}
}

// A sampled run must be deterministic: the per-region RNG streams are
// keyed on (spec hash, seed, window index), so the same spec run twice
// — in any process, on any worker — produces byte-identical Results.
func TestSampledRunDeterministic(t *testing.T) {
	spec := sampledTinySpec()
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Approximate {
		t.Fatal("sampled run did not set Approximate")
	}
	if a.Sampling == nil || a.Sampling.Windows < 1 {
		t.Fatalf("sampled run reports no sampling stats: %+v", a.Sampling)
	}
	if a.Sampling.ModeledTicks <= 0 {
		t.Fatal("sampled run modeled no cycles — the fast-forward never engaged")
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled run is nondeterministic:\n a %+v\n b %+v", a, b)
	}
}

// The exact engine must never report approximate results.
func TestExactEnginesAreNotApproximate(t *testing.T) {
	res, err := Run(exactTinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Approximate || res.Sampling != nil {
		t.Fatal("exact engine reported approximate results")
	}
}

// Golden drift cases: chaos injection biases the sampled engine's
// calibrated model (SampleDrift scales every synthesized divergence
// gap), forcing the run outside its error contract. The distributional
// validator must catch it with a typed *AccuracyError naming the
// drifted metric and the violated bound — and the same spec without
// the fault must pass, so the gate is detecting the drift, not noise.
func TestChaosSampleDriftTripsAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale exact reference run")
	}
	spec := RunSpec{Benchmark: "spmv", Scheduler: "gmc"}
	exact, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	clean := spec
	clean.Sampled = DefaultSampled()
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareSampled(cleanRes, exact, DefaultBounds()); err != nil {
		t.Fatalf("drift-free sampled run outside bounds: %v", err)
	}

	for _, drift := range []float64{2.5, 0.25} {
		spec := clean
		spec.Chaos = &Faults{SampleDrift: drift}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("drift %.2f: run failed: %v", drift, err)
		}
		err = CompareSampled(res, exact, DefaultBounds())
		if err == nil {
			t.Fatalf("drift %.2f stayed inside bounds: gate cannot see model bias", drift)
		}
		var acc *AccuracyError
		if !errors.As(err, &acc) {
			t.Fatalf("drift %.2f: want *AccuracyError, got %T: %v", drift, err, err)
		}
		if acc.Metric == "" || acc.Bound <= 0 {
			t.Fatalf("drift %.2f: error carries no metric/bound: %+v", drift, acc)
		}
	}
}

// TestSampledAccuracyGate is the CI accuracy gate: for every scheduler,
// a sampled run at default window parameters must land within
// DefaultBounds of the exact event-engine reference on IPC and the
// p50/p90/p99 divergence-gap percentiles. A regression in the
// statistical model (calibration, drain compensation, dispersion
// preservation) fails here before it can mislead a sweep.
func TestSampledAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact+sampled at full scale for every scheduler")
	}
	for _, sched := range Schedulers() {
		t.Run(sched, func(t *testing.T) {
			spec := RunSpec{Benchmark: "spmv", Scheduler: sched}
			exact, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Sampled = DefaultSampled()
			sampled, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !sampled.Approximate {
				t.Fatal("sampled run did not set Approximate")
			}
			if err := CompareSampled(sampled, exact, DefaultBounds()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
