package workload

import (
	"math/rand"

	"dramlat/internal/gpu"
	"dramlat/internal/sm"
)

// The Section VI-A suite: bandwidth-sensitive applications with structured,
// streaming access that coalesces to one request per load in the common
// case. The paper uses them to show warp-aware scheduling causes no
// slowdown (the regular experiment in internal/experiments holds the
// paper's WG-W gain on them).

// streamKernel builds a generic streaming workload: each warp marches
// through large arrays with fully coalesced loads and optional coalesced
// stores.
func streamKernel(p Params, name string, arrays int, loadsPerIter, storesPerIter, iters int) gpu.Workload {
	a := newArena()
	bases := make([]uint64, arrays)
	for i := range bases {
		bases[i] = a.alloc(64 << 20)
	}
	n := p.scaled(iters)
	b := newBuilder(p)
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < n; it++ {
			idx := ((global*n + it) * p.WarpSize) % (1 << 22)
			for l := 0; l < loadsPerIter; l++ {
				prog = append(prog, b.coalescedLoad(bases[l%arrays], idx+l*p.WarpSize))
				prog = append(prog, compute())
			}
			for s := 0; s < storesPerIter; s++ {
				prog = append(prog, b.coalescedStore(bases[(loadsPerIter+s)%arrays], idx+s*p.WarpSize))
			}
			prog = computeN(prog, 2)
		}
		return prog
	})
	return b.workload(name)
}

// BuildStreamcluster reproduces the Rodinia streaming clustering kernel:
// long coalesced distance sweeps, read dominated.
func BuildStreamcluster(p Params) gpu.Workload {
	return streamKernel(p, "streamcluster", 3, 4, 0, 20)
}

// BuildSRAD2 reproduces the Rodinia SRAD2 structured-grid stencil:
// neighboring rows load coalesced, one result row stores.
func BuildSRAD2(p Params) gpu.Workload {
	return streamKernel(p, "srad2", 4, 3, 1, 18)
}

// BuildBP reproduces Rodinia back-propagation: dense layer sweeps with a
// store per iteration (weight updates).
func BuildBP(p Params) gpu.Workload {
	return streamKernel(p, "bp", 4, 2, 2, 18)
}

// BuildHotspot reproduces the Rodinia HotSpot thermal stencil: five
// coalesced neighbor-row loads, one store.
func BuildHotspot(p Params) gpu.Workload {
	return streamKernel(p, "hotspot", 3, 5, 1, 14)
}

// BuildInvertedIndex reproduces the MARS InvertedIndex build: streaming
// document scan with streaming output.
func BuildInvertedIndex(p Params) gpu.Workload {
	return streamKernel(p, "invertedindex", 2, 3, 2, 16)
}

// BuildPageViewRank reproduces the MARS PageViewRank pass: streaming rank
// reads, light writes.
func BuildPageViewRank(p Params) gpu.Workload {
	return streamKernel(p, "pageviewrank", 3, 4, 1, 16)
}
