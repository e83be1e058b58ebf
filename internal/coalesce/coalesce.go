// Package coalesce implements the SIMT memory coalescer of Section III-A:
// the per-thread addresses of one warp load/store are combined into as few
// 128-byte cache-line-sized requests as possible. Coalescing eliminates
// redundant same-line accesses; it cannot help when the threads' data are
// not spatially co-located, which is exactly the irregular case the paper
// targets (Fig 2; the fig2 experiment in internal/experiments holds the
// paper's numbers).
package coalesce

// LineBytes is the coalescing granularity (the L1/L2 line size).
const LineBytes = 128

// Lines returns the unique 128B-aligned line addresses touched by the given
// per-thread addresses, in first-appearance order. Inactive threads are
// represented by absent entries (callers pass only active lanes). The
// result length is bounded by the number of addresses (at most the warp
// width, 32).
func Lines(addrs []uint64) []uint64 {
	// A warp has at most 32 lanes; linear dedup against the small output
	// slice beats a map allocation on this hot path.
	out := make([]uint64, 0, 8)
	for _, a := range addrs {
		line := a &^ uint64(LineBytes-1)
		dup := false
		for _, l := range out {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, line)
		}
	}
	return out
}

// LinesInto is an allocation-free variant of Lines for hot paths: it
// appends into dst and returns it.
func LinesInto(dst []uint64, addrs []uint64) []uint64 {
	dst = dst[:0]
	for _, a := range addrs {
		line := a &^ uint64(LineBytes-1)
		dup := false
		for _, l := range dst {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, line)
		}
	}
	return dst
}
