// Package sweep is the experiment-execution engine behind the paper
// reproduction: it expands declarative spec grids into dramlat.RunSpec
// lists, executes them on a worker pool with a persistent on-disk result
// cache, aggregates failures instead of dying on the first one, and
// exports the aggregate as JSON or CSV. cmd/dlbench, cmd/dlsweep and
// examples/schedcompare all run on top of it.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"dramlat"
)

// Grid declares a cartesian sweep over RunSpec dimensions. A nil/empty
// dimension means "the spec zero value" (which dramlat resolves to its
// default), so the zero Grid with one benchmark and one scheduler is a
// single run. Specs listed in Extra are appended verbatim after the
// cartesian product.
type Grid struct {
	Benchmarks []string  `json:"benchmarks,omitempty"`
	Schedulers []string  `json:"schedulers,omitempty"`
	Seeds      []int64   `json:"seeds,omitempty"`
	Scales     []float64 `json:"scales,omitempty"`
	SMs        []int     `json:"sms,omitempty"`
	WarpsPerSM []int     `json:"warps_per_sm,omitempty"`
	ReadQs     []int     `json:"read_qs,omitempty"`
	CmdQCaps   []int     `json:"cmd_q_caps,omitempty"`
	Alphas     []float64 `json:"alphas,omitempty"`
	Ablations  []string  `json:"ablations,omitempty"`
	WarpScheds []string  `json:"warp_scheds,omitempty"`

	PerfectCoalescing []bool `json:"perfect_coalescing,omitempty"`
	ZeroDivergence    []bool `json:"zero_divergence,omitempty"`

	Extra []dramlat.RunSpec `json:"extra,omitempty"`
}

// Size returns the number of specs Enumerate will produce.
func (g Grid) Size() int {
	dim := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	n := dim(len(g.Benchmarks)) * dim(len(g.Schedulers)) * dim(len(g.Seeds)) *
		dim(len(g.Scales)) * dim(len(g.SMs)) * dim(len(g.WarpsPerSM)) *
		dim(len(g.ReadQs)) * dim(len(g.CmdQCaps)) * dim(len(g.Alphas)) *
		dim(len(g.Ablations)) * dim(len(g.WarpScheds)) *
		dim(len(g.PerfectCoalescing)) * dim(len(g.ZeroDivergence))
	return n + len(g.Extra)
}

// Enumerate expands the grid into concrete specs, benchmarks outermost so
// per-benchmark results cluster together in reports.
func (g Grid) Enumerate() []dramlat.RunSpec {
	specs := []dramlat.RunSpec{{}}
	// Each non-empty dimension multiplies the partial spec list; empty
	// dimensions pass through, leaving the spec's zero value.
	strDim := func(vals []string, set func(*dramlat.RunSpec, string)) {
		if len(vals) == 0 {
			return
		}
		var next []dramlat.RunSpec
		for _, s := range specs {
			for _, v := range vals {
				c := s
				set(&c, v)
				next = append(next, c)
			}
		}
		specs = next
	}
	intDim := func(vals []int, set func(*dramlat.RunSpec, int)) {
		if len(vals) == 0 {
			return
		}
		var next []dramlat.RunSpec
		for _, s := range specs {
			for _, v := range vals {
				c := s
				set(&c, v)
				next = append(next, c)
			}
		}
		specs = next
	}
	f64Dim := func(vals []float64, set func(*dramlat.RunSpec, float64)) {
		if len(vals) == 0 {
			return
		}
		var next []dramlat.RunSpec
		for _, s := range specs {
			for _, v := range vals {
				c := s
				set(&c, v)
				next = append(next, c)
			}
		}
		specs = next
	}
	i64Dim := func(vals []int64, set func(*dramlat.RunSpec, int64)) {
		if len(vals) == 0 {
			return
		}
		var next []dramlat.RunSpec
		for _, s := range specs {
			for _, v := range vals {
				c := s
				set(&c, v)
				next = append(next, c)
			}
		}
		specs = next
	}
	boolDim := func(vals []bool, set func(*dramlat.RunSpec, bool)) {
		if len(vals) == 0 {
			return
		}
		var next []dramlat.RunSpec
		for _, s := range specs {
			for _, v := range vals {
				c := s
				set(&c, v)
				next = append(next, c)
			}
		}
		specs = next
	}

	strDim(g.Benchmarks, func(s *dramlat.RunSpec, v string) { s.Benchmark = v })
	strDim(g.Schedulers, func(s *dramlat.RunSpec, v string) { s.Scheduler = v })
	i64Dim(g.Seeds, func(s *dramlat.RunSpec, v int64) { s.Seed = v })
	f64Dim(g.Scales, func(s *dramlat.RunSpec, v float64) { s.Scale = v })
	intDim(g.SMs, func(s *dramlat.RunSpec, v int) { s.SMs = v })
	intDim(g.WarpsPerSM, func(s *dramlat.RunSpec, v int) { s.WarpsPerSM = v })
	intDim(g.ReadQs, func(s *dramlat.RunSpec, v int) { s.ReadQ = v })
	intDim(g.CmdQCaps, func(s *dramlat.RunSpec, v int) { s.CmdQueueCap = v })
	f64Dim(g.Alphas, func(s *dramlat.RunSpec, v float64) { s.SBWASAlpha = v })
	strDim(g.Ablations, func(s *dramlat.RunSpec, v string) { s.Ablation = v })
	strDim(g.WarpScheds, func(s *dramlat.RunSpec, v string) { s.WarpSched = v })
	boolDim(g.PerfectCoalescing, func(s *dramlat.RunSpec, v bool) { s.PerfectCoalescing = v })
	boolDim(g.ZeroDivergence, func(s *dramlat.RunSpec, v bool) { s.ZeroDivergence = v })

	specs = append(specs, g.Extra...)
	return specs
}

// Validate rejects grids that would enumerate specs dramlat.Run refuses,
// so a sweep fails before any work rather than per-spec. Every problem
// found in one pass is aggregated into a single *dramlat.ValidationError
// whose field names are the grid's JSON axis keys (indexed for
// per-element findings, e.g. "scales[1]"), so a caller reports
// everything at once.
func (g Grid) Validate() error {
	v := &dramlat.ValidationError{}
	if len(g.Benchmarks) == 0 && len(g.Extra) == 0 {
		v.Addf("benchmarks", nil, "grid selects no benchmarks (and no extra specs)")
	}
	// An axis that is present but empty is almost always a mistake (the
	// author meant to list values, or should delete the key to mean
	// "default"), and it would silently enumerate zero specs.
	for _, ax := range []struct {
		name    string
		present bool
	}{
		{"benchmarks", g.Benchmarks != nil && len(g.Benchmarks) == 0},
		{"schedulers", g.Schedulers != nil && len(g.Schedulers) == 0},
		{"seeds", g.Seeds != nil && len(g.Seeds) == 0},
		{"scales", g.Scales != nil && len(g.Scales) == 0},
		{"sms", g.SMs != nil && len(g.SMs) == 0},
		{"warps_per_sm", g.WarpsPerSM != nil && len(g.WarpsPerSM) == 0},
		{"read_qs", g.ReadQs != nil && len(g.ReadQs) == 0},
		{"cmd_q_caps", g.CmdQCaps != nil && len(g.CmdQCaps) == 0},
		{"alphas", g.Alphas != nil && len(g.Alphas) == 0},
		{"ablations", g.Ablations != nil && len(g.Ablations) == 0},
		{"warp_scheds", g.WarpScheds != nil && len(g.WarpScheds) == 0},
		{"perfect_coalescing", g.PerfectCoalescing != nil && len(g.PerfectCoalescing) == 0},
		{"zero_divergence", g.ZeroDivergence != nil && len(g.ZeroDivergence) == 0},
		{"extra", g.Extra != nil && len(g.Extra) == 0},
	} {
		if ax.present {
			v.Addf(ax.name, nil, "axis present but empty: add values or delete the key")
		}
	}
	known := map[string]bool{}
	for _, b := range dramlat.Benchmarks() {
		known[b.Name] = true
	}
	for i, b := range g.Benchmarks {
		if !known[b] {
			v.Addf(fmt.Sprintf("benchmarks[%d]", i), b, "unknown benchmark")
		}
	}
	scheds := map[string]bool{}
	for _, s := range dramlat.Schedulers() {
		scheds[s] = true
	}
	for i, s := range g.Schedulers {
		if !scheds[s] {
			v.Addf(fmt.Sprintf("schedulers[%d]", i), s, "unknown scheduler")
		}
	}
	// NaN/Inf never comes out of a JSON file, but grids are also built
	// in Go (and dlsweep's -scale flag parses "NaN" happily); fence the
	// float axes here so the poison cannot reach RunSpec hashing.
	for i, x := range g.Scales {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v.Addf(fmt.Sprintf("scales[%d]", i), x, "must be finite")
		}
	}
	for i, x := range g.Alphas {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v.Addf(fmt.Sprintf("alphas[%d]", i), x, "must be finite")
		}
	}
	for i, sp := range g.Extra {
		if err := sp.Validate(); err != nil {
			var ve *dramlat.ValidationError
			if errors.As(err, &ve) {
				for _, fe := range ve.Fields {
					v.Addf(fmt.Sprintf("extra[%d].%s", i, fe.Field), fe.Value, "%s", fe.Msg)
				}
			} else {
				v.Addf(fmt.Sprintf("extra[%d]", i), nil, "%v", err)
			}
		}
	}
	return v.Err()
}

// gridAxes is the set of legal top-level keys in a grid file, i.e. the
// JSON tags of Grid.
var gridAxes = map[string]bool{
	"benchmarks": true, "schedulers": true, "seeds": true, "scales": true,
	"sms": true, "warps_per_sm": true, "read_qs": true, "cmd_q_caps": true,
	"alphas": true, "ablations": true, "warp_scheds": true,
	"perfect_coalescing": true, "zero_divergence": true, "extra": true,
}

// ParseGrid decodes a JSON grid description (the cmd/dlsweep -grid
// file) and validates it. Unknown axis keys and
// duplicate axis keys — which encoding/json would silently drop or
// last-wins overwrite — are reported as *dramlat.ValidationError fields
// alongside everything Validate finds, so a bad grid file is fixed in
// one round trip.
func ParseGrid(r io.Reader) (Grid, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Grid{}, fmt.Errorf("sweep: parse grid: %w", err)
	}
	v := &dramlat.ValidationError{}
	decodable, err := checkGridKeys(data, v)
	if err != nil {
		return Grid{}, fmt.Errorf("sweep: parse grid: %w", err)
	}
	var g Grid
	if decodable {
		if err := json.Unmarshal(data, &g); err != nil {
			var te *json.UnmarshalTypeError
			if errors.As(err, &te) && te.Field != "" {
				v.Addf(te.Field, nil, "cannot decode JSON %s into %s", te.Value, te.Type)
			} else if v.Err() == nil {
				return Grid{}, fmt.Errorf("sweep: parse grid: %w", err)
			}
		} else if verr := g.Validate(); verr != nil {
			var ve *dramlat.ValidationError
			if errors.As(verr, &ve) {
				v.Fields = append(v.Fields, ve.Fields...)
			} else if v.Err() == nil {
				return Grid{}, verr
			}
		}
	}
	if err := v.Err(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// checkGridKeys token-walks the top-level object, recording unknown and
// duplicate axis keys into v. Out-of-range numbers (1e999) surface from
// the tokenizer as *json.UnmarshalTypeError; those are recorded against
// the axis being walked and stop the walk with decodable=false, since
// json.Unmarshal would only repeat the same failure. A hard error is
// returned only for JSON that does not parse at all.
func checkGridKeys(data []byte, v *dramlat.ValidationError) (decodable bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return false, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return false, fmt.Errorf("grid must be a JSON object, got %v", tok)
	}
	seen := map[string]int{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return false, err
		}
		key, _ := keyTok.(string)
		seen[key]++
		if seen[key] == 1 && !gridAxes[key] {
			v.Addf(key, nil, "unknown grid axis")
		}
		if seen[key] == 2 {
			v.Addf(key, nil, "duplicate axis key (JSON silently keeps only the last)")
		}
		if err := skipJSONValue(dec); err != nil {
			var te *json.UnmarshalTypeError
			if errors.As(err, &te) {
				v.Addf(key, nil, "cannot decode JSON %s into %s", te.Value, te.Type)
				return false, nil
			}
			return false, err
		}
	}
	_, err = dec.Token() // consume the closing '}'
	return err == nil, err
}

// skipJSONValue consumes one complete JSON value from dec.
func skipJSONValue(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok || (d != '{' && d != '[') {
		return nil
	}
	for dec.More() {
		if d == '{' {
			if _, err := dec.Token(); err != nil { // key
				return err
			}
		}
		if err := skipJSONValue(dec); err != nil {
			return err
		}
	}
	_, err = dec.Token() // closing delim
	return err
}
