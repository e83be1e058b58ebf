package sm

// This file keeps the pre-SoA warp-scheduler scan as an executable
// specification. pickWarpRef operates on a plain array-of-structs warp
// model and is a line-for-line transliteration of the original
// pointer-walking pickWarp; the property tests drive it in lockstep with
// the bitmask/flat-slice implementation across randomized warp states to
// pin the pick, the greedy bookkeeping, and the nextReady byproduct.

// refWarp is the reference model of one warp's scheduler-visible state.
type refWarp struct {
	Done    bool
	Blocked bool
	// MemNext reports whether the warp's next instruction is a memory
	// op (the replay-queue gating condition).
	MemNext bool
	ReadyAt int64
}

// pickWarpRef is the retained simple implementation: a linear scan over
// warp structs. It returns the picked warp index (or -1), the greedy
// slot after the scan, and the nextReady bound a failed scan computed
// (never when the scan succeeded or saw no counting-down warp).
func pickWarpRef(warps []refWarp, greedy int, lrr, replayBusy bool, now int64) (pick, newGreedy int, nextReady int64) {
	nextReady = never
	ready := func(w *refWarp) bool {
		if w.Done || w.Blocked {
			return false
		}
		if w.ReadyAt > now {
			if w.ReadyAt < nextReady {
				nextReady = w.ReadyAt
			}
			return false
		}
		if replayBusy && w.MemNext {
			return false
		}
		return true
	}
	if lrr {
		for i := 1; i <= len(warps); i++ {
			wi := (greedy + i) % len(warps)
			if ready(&warps[wi]) {
				return wi, wi, never
			}
		}
		return -1, greedy, nextReady
	}
	if ready(&warps[greedy]) {
		return greedy, greedy, never
	}
	for wi := range warps {
		if ready(&warps[wi]) {
			return wi, wi, never
		}
	}
	return -1, greedy, nextReady
}
