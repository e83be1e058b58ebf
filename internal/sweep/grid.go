// Package sweep is the experiment-execution engine behind the paper
// reproduction: it expands declarative spec grids into dramlat.RunSpec
// lists, executes them on a worker pool with a persistent on-disk result
// cache, aggregates failures instead of dying on the first one, and
// exports the aggregate as JSON or CSV. cmd/dlbench and cmd/dlsweep run
// on top of it.
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

// axis is one cartesian dimension of a Grid: its JSON key, whether the
// key was given with no values, its length, and a setter that writes its
// i-th value into a spec.
type axis struct {
	key   string
	empty bool // present but empty: non-nil with no values
	n     int
	set   func(s *dramlat.RunSpec, i int)
}

// ax builds the axis for one typed value list.
func ax[T any](key string, vals []T, set func(*dramlat.RunSpec, T)) axis {
	return axis{key, vals != nil && len(vals) == 0, len(vals),
		func(s *dramlat.RunSpec, i int) { set(s, vals[i]) }}
}

// axes lists the grid's dimensions in enumeration order, benchmarks
// outermost so per-benchmark results cluster together in reports.
func (g Grid) axes() []axis {
	return []axis{
		ax("benchmarks", g.Benchmarks, func(s *dramlat.RunSpec, v string) { s.Benchmark = v }),
		ax("schedulers", g.Schedulers, func(s *dramlat.RunSpec, v string) { s.Scheduler = v }),
		ax("seeds", g.Seeds, func(s *dramlat.RunSpec, v int64) { s.Seed = v }),
		ax("scales", g.Scales, func(s *dramlat.RunSpec, v float64) { s.Scale = v }),
		ax("sms", g.SMs, func(s *dramlat.RunSpec, v int) { s.SMs = v }),
		ax("warps_per_sm", g.WarpsPerSM, func(s *dramlat.RunSpec, v int) { s.WarpsPerSM = v }),
		ax("read_qs", g.ReadQs, func(s *dramlat.RunSpec, v int) { s.ReadQ = v }),
		ax("cmd_q_caps", g.CmdQCaps, func(s *dramlat.RunSpec, v int) { s.CmdQueueCap = v }),
		ax("alphas", g.Alphas, func(s *dramlat.RunSpec, v float64) { s.SBWASAlpha = v }),
		ax("ablations", g.Ablations, func(s *dramlat.RunSpec, v string) { s.Ablation = v }),
		ax("warp_scheds", g.WarpScheds, func(s *dramlat.RunSpec, v string) { s.WarpSched = v }),
		ax("perfect_coalescing", g.PerfectCoalescing, func(s *dramlat.RunSpec, v bool) { s.PerfectCoalescing = v }),
		ax("zero_divergence", g.ZeroDivergence, func(s *dramlat.RunSpec, v bool) { s.ZeroDivergence = v }),
		ax("extra", g.Extra, nil),
	}
}

// cartesian is the axes that multiply: all but the trailing Extra.
func (g Grid) cartesian() []axis {
	a := g.axes()
	return a[:len(a)-1]
}

// Size returns the number of specs Enumerate will produce.
func (g Grid) Size() int {
	n := 1
	for _, a := range g.cartesian() {
		n *= max(a.n, 1)
	}
	return n + len(g.Extra)
}

// Enumerate expands the grid into concrete specs in axis order, the last
// axis varying fastest, then appends Extra. An empty axis leaves the
// spec's zero value, which dramlat resolves to its default.
func (g Grid) Enumerate() []dramlat.RunSpec {
	specs := []dramlat.RunSpec{{}}
	for _, a := range g.cartesian() {
		if a.n == 0 {
			continue
		}
		next := make([]dramlat.RunSpec, 0, len(specs)*a.n)
		for _, s := range specs {
			for i := range a.n {
				a.set(&s, i)
				next = append(next, s)
			}
		}
		specs = next
	}
	return append(specs, g.Extra...)
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
	for _, a := range g.axes() {
		if a.empty {
			v.Addf(a.key, nil, "axis present but empty: add values or delete the key")
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
	known := map[string]bool{}
	for _, a := range (Grid{}).axes() {
		known[a.key] = true
	}
	seen := map[string]int{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return false, err
		}
		key, _ := keyTok.(string)
		seen[key]++
		if seen[key] == 1 && !known[key] {
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
