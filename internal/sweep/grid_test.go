package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"dramlat"
)

// fieldsOf asserts err is a *dramlat.ValidationError and returns its
// field names in order.
func fieldsOf(t *testing.T, err error) []string {
	t.Helper()
	var ve *dramlat.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error %v (%T) is not a *dramlat.ValidationError", err, err)
	}
	names := make([]string, len(ve.Fields))
	for i, f := range ve.Fields {
		names[i] = f.Field
	}
	return names
}

func wantFields(t *testing.T, err error, want ...string) {
	t.Helper()
	got := fieldsOf(t, err)
outer:
	for _, w := range want {
		for _, g := range got {
			if g == w {
				continue outer
			}
		}
		t.Errorf("missing field %q in %v (error: %v)", w, got, err)
	}
}

// TestParseGridErrorPaths pins the structured failure vocabulary of
// ParseGrid: every malformed grid comes back as a *ValidationError
// naming the offending axis keys, so a caller can report every one of
// them at once.
func TestParseGridErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		json   string
		fields []string
	}{
		{"unknown field",
			`{"benchmarks":["bfs"],"bogus_axis":[1]}`,
			[]string{"bogus_axis"}},
		{"empty axis",
			`{"benchmarks":["bfs"],"seeds":[]}`,
			[]string{"seeds"}},
		{"several empty axes aggregate",
			`{"benchmarks":["bfs"],"seeds":[],"scales":[],"warp_scheds":[]}`,
			[]string{"seeds", "scales", "warp_scheds"}},
		{"duplicate axis key",
			`{"benchmarks":["bfs"],"seeds":[1],"seeds":[2]}`,
			[]string{"seeds"}},
		{"unknown benchmark",
			`{"benchmarks":["bfs","nope"]}`,
			[]string{"benchmarks[1]"}},
		{"unknown scheduler",
			`{"benchmarks":["bfs"],"schedulers":["gmc","fancy"]}`,
			[]string{"schedulers[1]"}},
		{"out-of-range float literal",
			`{"benchmarks":["bfs"],"scales":[1e999]}`,
			[]string{"scales"}},
		{"unknown and duplicate together",
			`{"benchmarks":["bfs"],"wat":1,"wat":2,"seeds":[]}`,
			[]string{"wat", "seeds"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("ParseGrid(%s) succeeded", tc.json)
			}
			wantFields(t, err, tc.fields...)
		})
	}

	// Outright-broken JSON is not a validation error.
	if _, err := ParseGrid(strings.NewReader(`{"benchmarks":`)); err == nil {
		t.Fatal("truncated JSON accepted")
	} else {
		var ve *dramlat.ValidationError
		if errors.As(err, &ve) {
			t.Fatalf("truncated JSON misreported as validation error: %v", err)
		}
	}
	if _, err := ParseGrid(strings.NewReader(`[1,2]`)); err == nil {
		t.Fatal("non-object grid accepted")
	}

	// A good grid still parses.
	g, err := ParseGrid(strings.NewReader(
		`{"benchmarks":["bfs","spmv"],"schedulers":["gmc","wg-w"],"seeds":[1,2]}`))
	if err != nil {
		t.Fatalf("good grid rejected: %v", err)
	}
	if g.Size() != 8 {
		t.Fatalf("size %d, want 8", g.Size())
	}
}

// TestGridValidateStructured covers Validate paths not reachable via
// JSON (NaN/Inf floats, bad Extra specs, duplicate benchmark names are
// fine) and the multi-problem aggregation contract.
func TestGridValidateStructured(t *testing.T) {
	err := Grid{}.Validate()
	wantFields(t, err, "benchmarks")

	err = Grid{
		Benchmarks: []string{"bfs", "nope"},
		Schedulers: []string{"fancy"},
		Scales:     []float64{0.1, math.NaN(), math.Inf(1)},
		Alphas:     []float64{math.Inf(-1)},
	}.Validate()
	wantFields(t, err,
		"benchmarks[1]", "schedulers[0]", "scales[1]", "scales[2]", "alphas[0]")
	if got := fieldsOf(t, err); len(got) != 5 {
		t.Errorf("want exactly 5 problems, got %v", got)
	}

	// Extra specs validate individually, fields prefixed with their index.
	err = Grid{Extra: []dramlat.RunSpec{
		{Benchmark: "bfs", Scheduler: "gmc"},
		{Benchmark: "nope", Scale: -1},
	}}.Validate()
	wantFields(t, err, "extra[1].Benchmark", "extra[1].Scale")
	for _, f := range fieldsOf(t, err) {
		if strings.HasPrefix(f, "extra[0]") {
			t.Errorf("valid extra spec produced field %q", f)
		}
	}

	// A grid valid only through Extra (no cartesian axes) passes.
	if err := (Grid{Extra: []dramlat.RunSpec{{Benchmark: "bfs", Scheduler: "gmc"}}}).Validate(); err != nil {
		t.Fatalf("extra-only grid rejected: %v", err)
	}
}

// TestGridEnumerateAllAxes pins the size and the exact enumeration order
// of a grid that sets every axis (two values on most) plus one extra
// spec. The digest covers each spec's CanonicalJSON in order, so a
// reordered axis, a dropped setter or a setter wired to the wrong field
// all change it; so would any change to what Canonical resolves.
func TestGridEnumerateAllAxes(t *testing.T) {
	f, err := os.Open("testdata/all-axes.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ParseGrid(f)
	if err != nil {
		t.Fatal(err)
	}
	specs := g.Enumerate()
	if len(specs) != 257 || g.Size() != len(specs) {
		t.Fatalf("enumerated %d specs, Size() = %d, want 257", len(specs), g.Size())
	}
	h := sha256.New()
	for _, s := range specs {
		b, err := s.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	const want = "6d78309657821a98f64213786cb89745071908cdab47ef47a5e42472c06d982a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("enumeration digest %s, want %s", got, want)
	}
}
