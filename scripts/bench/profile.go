package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules (directories of internal/) that the
// traced run attributes host time to, plus "runtime" for every sample
// that never passes through one of them: GC, the scheduler, the harness.
var layers = []string{
	"gpu", "sm", "coalesce", "cache", "xbar", "memctrl", "core", "coordnet",
	"dram", "addrmap", "stats", "workload", "sweep", "guard", "runtime",
}

// layerOf maps a profiled function name such as
// "dramlat/internal/sm.(*SM).Tick" to its layer, or "" when the function
// belongs to none. Sub-packages count as their parent (guard/chaos is
// guard); helper packages outside the list, such as memreq, are skipped
// so their time goes to the layer that called them.
func layerOf(fn string) string {
	const prefix = "dramlat/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	name := fn[len(prefix):]
	if i := strings.IndexAny(name, "./"); i >= 0 {
		name = name[:i]
	}
	for _, l := range layers[:len(layers)-1] {
		if l == name {
			return l
		}
	}
	return ""
}

// cpuProfile is the part of a pprof CPU profile the traced run needs:
// per sample, the function names from leaf to root and the CPU time.
type cpuProfile struct {
	Samples []profSample
}

type profSample struct {
	Funcs []string // leaf first, inlined frames expanded
	Nanos int64
}

// TotalNanos sums the CPU time of every sample.
func (p *cpuProfile) TotalNanos() int64 {
	var n int64
	for _, s := range p.Samples {
		n += s.Nanos
	}
	return n
}

// LayerNanos attributes each sample to the first frame, walked from the
// leaf, that belongs to a layer; samples with none go to "runtime". Every
// sample lands in exactly one layer, so the values sum to TotalNanos.
func (p *cpuProfile) LayerNanos() map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.Samples {
		layer := "runtime"
		for _, fn := range s.Funcs {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.Nanos
	}
	return out
}

// parseCPUProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes. It reads only the fields it needs: sample types,
// samples, locations with their line records, functions and the string
// table (field numbers from github.com/google/pprof/proto/profile.proto).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1, unit = 2}
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample: location_id = 1, value = 2 (packed or not)
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendScalars(s.locs, v, b)
				case 2:
					s.values, err = appendScalars(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: id = 1, line = 4 (Line{function_id = 1})
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: id = 1, name = 2
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{Nanos: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.Funcs = append(ps.Funcs, str(funcNames[fn]))
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// appendScalars appends a repeated scalar field's values: one varint v
// when the field was encoded unpacked (b == nil), else the packed varints
// in b.
func appendScalars(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// eachField walks one protobuf message, calling f for each field with its
// number and either its varint value (b == nil) or its length-delimited
// bytes. Fixed-width fields are skipped; pprof uses none it needs.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
