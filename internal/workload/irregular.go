package workload

import (
	"math/rand"

	"dramlat/internal/gpu"
	"dramlat/internal/sm"
)

// BuildBFS reproduces Rodinia breadth-first search: one thread per node,
// a sparse frontier mask, edge-list walks and visited-flag gathers.
//
// Calibration: the frontier is sparse (2-6 active lanes), so most loads
// produce 1-4 clustered requests and a warp touches < 2 controllers on
// average (Fig 3 groups bfs with the low-spread applications); writes are
// light (cost/mask updates).
func BuildBFS(p Params) gpu.Workload {
	b := newBuilder(p)
	g := randCSR(b.seed(p.Seed), 150_000, 8, 0.7, 512)
	a := newArena()
	maskBase := a.alloc(uint64(g.n) * 4)
	rowBase := a.alloc(uint64(len(g.rowPtr)) * 4)
	colBase := a.alloc(uint64(len(g.colIdx)) * 4)
	visBase := a.alloc(uint64(g.n) * 4)
	costBase := a.alloc(uint64(g.n) * 4)

	iters := p.scaled(10)
	perm := make([]int, p.WarpSize)
	var rp, ce, vf, up []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < iters; it++ {
			nodeBase := (global*p.WarpSize + it*7777) % (g.n - p.WarpSize)
			// Frontier mask check: fully coalesced (consecutive tids).
			prog = append(prog, b.coalescedLoad(maskBase, nodeBase))
			// Sparse frontier: 2-6 lanes are active this iteration.
			active := wr.Intn(3) + 2
			lanes := permInto(wr, perm)[:active]
			// Row pointers of the active nodes (clustered: the nodes are
			// consecutive thread ids).
			rp = rp[:0]
			for _, l := range lanes {
				rp = append(rp, elem4(rowBase, nodeBase+l))
			}
			prog = append(prog, b.gather(rp))
			// Edge walk: each active lane loads one neighbor id per
			// step, then the neighbor's visited flag (data-dependent).
			steps := wr.Intn(3) + 1
			for s := 0; s < steps; s++ {
				ce, vf = ce[:0], vf[:0]
				for _, l := range lanes {
					node := nodeBase + l
					d := g.degree(node)
					if d == 0 {
						continue
					}
					e := int(g.rowPtr[node]) + (s % d)
					ce = append(ce, elem4(colBase, e))
					vf = append(vf, elem4(visBase, int(g.colIdx[e])))
				}
				if len(ce) > 0 {
					prog = append(prog, b.gather(ce), b.gather(vf))
				}
				prog = append(prog, compute())
			}
			// Cost update for discovered nodes (scattered, small).
			up = up[:0]
			for _, l := range lanes[:1+active/3] {
				node := nodeBase + l
				if g.degree(node) > 0 {
					up = append(up, elem4(costBase, int(g.edges(node)[0])))
				}
			}
			if len(up) > 0 {
				prog = append(prog, b.scatter(up))
			}
			prog = computeN(prog, 2)
		}
		return prog
	})
	return b.workload("bfs")
}

// BuildSSSP reproduces the LonestarGPU worklist-driven single-source
// shortest paths kernel: threads pop arbitrary node ids from a worklist, so
// even the row-pointer loads are fully divergent gathers.
//
// Calibration: high request counts per load and wide channel spread (the
// paper groups sssp with the ~3.2-controller applications).
func BuildSSSP(p Params) gpu.Workload {
	b := newBuilder(p)
	g := randCSR(b.seed(p.Seed+2), 150_000, 8, 0.3, 2048)
	a := newArena()
	rowBase := a.alloc(uint64(len(g.rowPtr)) * 4)
	colBase := a.alloc(uint64(len(g.colIdx)) * 4)
	wtBase := a.alloc(uint64(len(g.colIdx)) * 4)
	distBase := a.alloc(uint64(g.n) * 4)
	wlBase := a.alloc(1 << 20)

	iters := p.scaled(7)
	nodes := make([]int, p.WarpSize)
	var rp, ce, wts, dst []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < iters; it++ {
			// Pop 32 node ids from the worklist (coalesced read of the
			// worklist itself).
			prog = append(prog, b.coalescedLoad(wlBase, (global*iters+it)*p.WarpSize%200000))
			// Lonestar worklists retain partial ordering: lanes pop in
			// clusters of four consecutive node ids.
			rp = rp[:0]
			for c := 0; c < p.WarpSize/4; c++ {
				base := wr.Intn(g.n - 4)
				for k := 0; k < 4; k++ {
					nodes[c*4+k] = base + k
					rp = append(rp, elem4(rowBase, base+k))
				}
			}
			// Divergent row-pointer gather (up to 32 lines).
			prog = append(prog, b.gather(rp))
			// One edge-relaxation step per node: neighbor id, weight,
			// dist[neighbor] gathers and a scattered dist update.
			ce, wts, dst = ce[:0], wts[:0], dst[:0]
			for _, n := range nodes[:12] {
				if g.degree(n) == 0 {
					continue
				}
				e := int(g.rowPtr[n]) + wr.Intn(g.degree(n))
				ce = append(ce, elem4(colBase, e))
				wts = append(wts, elem4(wtBase, e))
				dst = append(dst, elem4(distBase, int(g.colIdx[e])))
			}
			if len(ce) > 0 {
				prog = append(prog, b.gather(ce), b.gather(wts), b.gather(dst), compute())
				prog = append(prog, b.scatter(dst[:1+len(dst)/4]))
			}
			prog = computeN(prog, 2)
		}
		return prog
	})
	return b.workload("sssp")
}

// BuildSP reproduces LonestarGPU survey propagation: message updates over a
// random bipartite factor graph — nearly pure pointer-chasing gathers with
// almost no spatial locality and very light writes.
func BuildSP(p Params) gpu.Workload {
	b := newBuilder(p)
	g := randCSR(b.seed(p.Seed+3), 120_000, 6, 0.1, 1024)
	a := newArena()
	edgeBase := a.alloc(uint64(len(g.colIdx)) * 8) // per-edge message (8B)
	nodeBase := a.alloc(uint64(g.n) * 8)

	iters := p.scaled(8)
	var msg, vars []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < iters; it++ {
			// Each lane updates one clause: gather the messages on the
			// clause's (random) edges, then the variable states.
			msg, vars = msg[:0], vars[:0]
			for l := 0; l < p.WarpSize/2; l++ {
				n := wr.Intn(g.n)
				if g.degree(n) == 0 {
					continue
				}
				e := int(g.rowPtr[n]) + wr.Intn(g.degree(n))
				msg = append(msg, edgeBase+uint64(e)*8)
				vars = append(vars, nodeBase+uint64(g.colIdx[e])*8)
			}
			prog = append(prog, b.gather(msg), compute(), b.gather(vars), compute())
			// Sparse message write-back.
			prog = append(prog, b.scatter(msg[:2]))
			prog = computeN(prog, 3)
		}
		return prog
	})
	return b.workload("sp")
}

// BuildSpMV reproduces the Parboil CSR sparse matrix-vector kernel: one
// thread per row, banded column structure, so the x-vector gathers mix
// same-row locality (~30%, Section III-A) with cross-channel spread (~3.2
// controllers, Fig 3).
func BuildSpMV(p Params) gpu.Workload {
	b := newBuilder(p)
	g := randCSR(b.seed(p.Seed+4), 100_000, 12, 0.85, 128)
	a := newArena()
	rowBase := a.alloc(uint64(len(g.rowPtr)) * 4)
	colBase := a.alloc(uint64(len(g.colIdx)) * 4)
	valBase := a.alloc(uint64(len(g.colIdx)) * 4)
	xBase := a.alloc(uint64(g.n) * 4)
	yBase := a.alloc(uint64(g.n) * 4)

	rows := p.scaled(8)
	var cv, xs []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for r := 0; r < rows; r++ {
			base := ((global*rows + r) * p.WarpSize * 13) % (g.n - p.WarpSize)
			prog = append(prog, b.coalescedLoad(rowBase, base))
			// Each lane walks its row; per step every lane loads one
			// (col,val) pair then x[col].
			steps := 3
			for s := 0; s < steps; s++ {
				cv, xs = cv[:0], xs[:0]
				for l := 0; l < p.WarpSize; l++ {
					row := base + l
					d := g.degree(row)
					if d == 0 {
						continue
					}
					e := int(g.rowPtr[row]) + (s*d/steps)%d
					cv = append(cv, elem4(colBase, e))
					xs = append(xs, elem4(xBase, int(g.colIdx[e])))
					_ = valBase
				}
				prog = append(prog, b.gather(cv), b.gather(xs), compute())
			}
			prog = append(prog, b.coalescedStore(yBase, base))
			prog = computeN(prog, 2)
		}
		return prog
	})
	return b.workload("spmv")
}

// BuildCFD reproduces the Rodinia unstructured-mesh Euler solver: per-cell
// gathers of four neighbors' flow variables from a renumbered mesh
// (mostly-local neighbor indices with a random tail), wide channel spread.
func BuildCFD(p Params) gpu.Workload {
	b := newBuilder(p)
	mesh := randCSR(b.seed(p.Seed+5), 97_000, 4, 0.9, 128)
	a := newArena()
	nbBase := a.alloc(uint64(len(mesh.colIdx)) * 4)
	// Five flow variables, SoA layout.
	var varBase [5]uint64
	for i := range varBase {
		varBase[i] = a.alloc(uint64(mesh.n) * 4)
	}
	fluxBase := a.alloc(uint64(mesh.n) * 4 * 5)

	iters := p.scaled(6)
	var g0, g1 []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < iters; it++ {
			base := ((global + it*331) * p.WarpSize) % (mesh.n - p.WarpSize)
			// Neighbor indices: coalesced (4 per cell, AoS).
			prog = append(prog, b.coalescedLoad(nbBase, base*4))
			// Own-cell variables: coalesced.
			prog = append(prog, b.coalescedLoad(varBase[0], base))
			// Neighbor gathers for two variables over the 4 neighbors.
			for k := 0; k < 4; k++ {
				g0, g1 = g0[:0], g1[:0]
				for l := 0; l < p.WarpSize; l++ {
					cell := base + l
					if mesh.degree(cell) == 0 {
						continue
					}
					nb := int(mesh.edges(cell)[k%mesh.degree(cell)])
					g0 = append(g0, elem4(varBase[1+k%4], nb))
					g1 = append(g1, elem4(varBase[(2+k)%5], nb))
				}
				prog = append(prog, b.gather(g0), b.gather(g1), compute())
			}
			// Flux write-back: coalesced.
			prog = append(prog, b.coalescedStore(fluxBase, base))
			prog = computeN(prog, 4)
		}
		return prog
	})
	return b.workload("cfd")
}

// BuildNW reproduces Rodinia Needleman-Wunsch: 16x16 blocks along the
// anti-diagonal of a dynamic-programming matrix. Row segments coalesce;
// the column segments are short strided gathers confined to one block
// column (low controller spread), and every block writes its tile back —
// one of the paper's write-intensive applications (Fig 12).
func BuildNW(p Params) gpu.Workload {
	const width = 2048 // DP matrix is width x width int32
	a := newArena()
	matBase := a.alloc(uint64(width) * uint64(width) * 4)
	refBase := a.alloc(uint64(width) * uint64(width) * 4)

	blocks := p.scaled(20)
	b := newBuilder(p)
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for bl := 0; bl < blocks; bl++ {
			bx := ((global*7 + bl*3) % (width/16 - 1)) * 16
			by := ((global*3 + bl*5) % (width/16 - 1)) * 16
			at := func(r, c int) uint64 { return matBase + uint64(r*width+c)*4 }
			// North boundary row: coalesced (16 x 4B = 64B).
			row := b.alloc(16)
			for i := range row {
				row[i] = at(by, bx+i)
			}
			prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: row})
			// West boundary column: strided by the matrix width — 12
			// lanes active, 8KB stride but confined to one block
			// column, so requests cluster on few controllers.
			col := b.alloc(12)
			for i := range col {
				col[i] = at(by+i, bx)
			}
			prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: col})
			// Reference tile: four coalesced row segments.
			for r := 0; r < 4; r++ {
				ref := b.alloc(16)
				for i := range ref {
					ref[i] = refBase + uint64((by+r*4)*width+bx+i)*4
				}
				prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: ref})
			}
			prog = append(prog, compute()) // the wavefront compute
			// Tile write-back: eight row stores (write intensive).
			for r := 0; r < 8; r++ {
				wrow := b.alloc(16)
				for i := range wrow {
					wrow[i] = at(by+r*2, bx+i)
				}
				prog = append(prog, sm.Insn{Kind: sm.Store, Addrs: wrow})
			}
		}
		return prog
	})
	return b.workload("nw")
}

// BuildKmeans reproduces the Rodinia k-means distance kernel with the
// untransposed (AoS) feature layout: lane i reads point (base+i)'s feature
// f at stride F*4 = 36B, so one warp load spans ~1.1KB — a mid-divergence
// pattern (~9 requests over ~4 blocks).
func BuildKmeans(p Params) gpu.Workload {
	const nPoints = 300_000
	const features = 9
	a := newArena()
	featBase := a.alloc(uint64(nPoints) * features * 4)
	memberBase := a.alloc(uint64(nPoints) * 4)
	centBase := a.alloc(64 * features * 4) // 64 centroids: cache resident

	pts := p.scaled(10)
	b := newBuilder(p)
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < pts; it++ {
			base := ((global*pts + it) * p.WarpSize) % (nPoints - p.WarpSize)
			for f := 0; f < 3; f++ {
				addrs := b.alloc(p.WarpSize)
				for l := range addrs {
					addrs[l] = featBase + uint64(((base+l)*features+f*3)*4)
				}
				prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: addrs})
				// Centroid access: tiny array, stays cache resident.
				prog = append(prog, b.gather([]uint64{elem4(centBase, f*features)}))
				prog = append(prog, compute())
			}
			prog = append(prog, b.coalescedStore(memberBase, base))
			prog = computeN(prog, 2)
		}
		return prog
	})
	return b.workload("kmeans")
}

// BuildPVC reproduces MARS PageViewCount: hashing page-view log records
// into a hash table — coalesced log reads followed by random bucket probes
// and moderate insert-write traffic.
func BuildPVC(p Params) gpu.Workload {
	const logRecords = 1 << 20
	const buckets = 1 << 18
	a := newArena()
	logBase := a.alloc(logRecords * 16)
	bktBase := a.alloc(buckets * 16)
	outBase := a.alloc(logRecords * 8)

	recs := p.scaled(14)
	b := newBuilder(p)
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < recs; it++ {
			base := ((global*recs + it) * p.WarpSize) % (logRecords - p.WarpSize)
			// Log scan: coalesced (16B records -> 4 lines per warp).
			addrs := b.alloc(p.WarpSize)
			for l := range addrs {
				addrs[l] = logBase + uint64(base+l)*16
			}
			prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: addrs})
			prog = append(prog, compute()) // hash
			// Bucket probe: every lane hits a random bucket (full 32-way
			// divergence over a 4MB table).
			// Bucket probes: 12 lanes find distinct buckets this pass
			// (the rest hit the same cache lines as a neighbor lane).
			probe := b.alloc(12)
			for l := range probe {
				probe[l] = bktBase + uint64(wr.Intn(buckets))*16
			}
			prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: probe})
			// Insert: scattered writes to a third of the buckets probed.
			prog = append(prog, sm.Insn{Kind: sm.Store, Addrs: probe[:4:4]})
			prog = append(prog, b.coalescedStore(outBase, base))
			prog = computeN(prog, 2)
		}
		return prog
	})
	return b.workload("PVC")
}

// BuildSS reproduces MARS SimilarityScore: pairwise document-vector dot
// products with score-matrix updates — clustered short gathers (low
// controller spread) and heavy write traffic (Fig 12).
func BuildSS(p Params) gpu.Workload {
	const docs = 40_000
	const veclen = 128
	a := newArena()
	vecBase := a.alloc(docs * veclen * 4)
	scoreBase := a.alloc(64 << 20)

	pairs := p.scaled(16)
	b := newBuilder(p)
	var ws []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < pairs; it++ {
			d1 := wr.Intn(docs)
			d2 := wr.Intn(docs)
			// Vector segments: coalesced within each document.
			prog = append(prog, b.coalescedLoad(vecBase, d1*veclen))
			prog = append(prog, b.coalescedLoad(vecBase, d2*veclen))
			// Previous-score gather: a few entries clustered within one
			// score-matrix row (1-2 lines, single controller).
			prev := b.alloc(4)
			for k := range prev {
				prev[k] = scoreBase + uint64(d1)*1024 + uint64(wr.Intn(128))*4
			}
			prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: prev})
			prog = computeN(prog, 2)
			// Score updates: a burst of scattered stores into the score
			// matrix row (clustered within one region).
			rowBase := scoreBase + uint64(d1)*1024
			ws = ws[:0]
			for k := 0; k < 12; k++ {
				ws = append(ws, rowBase+uint64(wr.Intn(256))*4)
			}
			prog = append(prog, b.scatter(ws))
			prog = append(prog, b.scatter([]uint64{rowBase + uint64(d2%256)*4}))
			prog = append(prog, compute())
		}
		return prog
	})
	return b.workload("SS")
}

// BuildBH reproduces the LonestarGPU Barnes-Hut force kernel: spatially
// sorted bodies walk the octree together, so top-of-tree loads coalesce to
// a handful of nodes while deep levels diverge to per-lane node addresses.
func BuildBH(p Params) gpu.Workload {
	b := newBuilder(p)
	tree := randOctree(b.seed(p.Seed+8), 9)
	a := newArena()
	nodeBase := a.alloc(uint64(tree.nodeCount()) * 32) // 32B per node
	bodyBase := a.alloc(1 << 22)
	accBase := a.alloc(1 << 22)

	walks := p.scaled(5)
	var addrs []uint64
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < walks; it++ {
			base := ((global*walks + it) * p.WarpSize) % (1<<20 - p.WarpSize)
			// Body positions: coalesced.
			prog = append(prog, b.coalescedLoad(bodyBase, base))
			// Walk the levels: distinct node count doubles with depth.
			for depth := 0; depth < tree.levels(); depth++ {
				// Spatial sorting keeps at most ~16 distinct nodes per
				// warp even deep in the tree (Lonestar warp voting).
				distinct := 1 << uint(depth)
				if distinct > 16 {
					distinct = 16
				}
				addrs = addrs[:0]
				for d := 0; d < distinct; d++ {
					n := tree.pick(wr, depth)
					addrs = append(addrs, nodeBase+uint64(n)*32)
				}
				prog = append(prog, b.gather(addrs), compute())
			}
			// Acceleration write-back: coalesced.
			prog = append(prog, b.coalescedStore(accBase, base))
			prog = computeN(prog, 3)
		}
		return prog
	})
	return b.workload("bh")
}

// BuildSAD reproduces Parboil sum-of-absolute-differences: 16x16 block
// matching over a reference window. All of a warp's loads fall inside one
// small 2D window (1-2 banks, Fig 3's lowest spread), and the SAD results
// produce heavy coalesced write traffic (Fig 12).
func BuildSAD(p Params) gpu.Workload {
	const frameW = 1920
	const frameH = 1080
	a := newArena()
	curBase := a.alloc(frameW * frameH * 2)
	refBase := a.alloc(frameW * frameH * 2)
	sadBase := a.alloc(256 << 20)

	blocks := p.scaled(10)
	b := newBuilder(p)
	b.eachWarp(func(wr *rand.Rand, global int, prog sm.Program) sm.Program {
		for it := 0; it < blocks; it++ {
			bx := (global*16 + it*37) % (frameW - 64)
			by := (global*7 + it*13) % (frameH - 64)
			pix := func(base uint64, x, y int) uint64 {
				return base + uint64(y*frameW+x)*2
			}
			// Current block rows: each warp load covers two 16-pixel
			// rows (2B pixels): requests cluster in one region.
			for r := 0; r < 4; r++ {
				addrs := b.alloc(p.WarpSize)
				for l := range addrs {
					addrs[l] = pix(curBase, bx+(l%16), by+r*2+l/16)
				}
				prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: addrs})
				// Candidate rows from the search window around (bx,by).
				cand := b.alloc(p.WarpSize)
				dx, dy := wr.Intn(16)-8, wr.Intn(16)-8
				for l := range cand {
					cand[l] = pix(refBase, bx+dx+(l%16), by+dy+r*2+l/16)
				}
				prog = append(prog, sm.Insn{Kind: sm.Load, Addrs: cand})
				prog = append(prog, compute())
			}
			// SAD results: large coalesced store burst.
			out := (global*blocks + it) * 1024
			for r := 0; r < 3; r++ {
				prog = append(prog, b.coalescedStore(sadBase, (out+r*p.WarpSize)%(200<<18)))
			}
			prog = append(prog, compute())
		}
		return prog
	})
	return b.workload("sad")
}
