package sm

// Sampled-engine hooks: the interval-sampling engine (gpu.EngineSampled)
// freezes every SM's issue stage, runs the detailed core until the
// memory system drains, then advances warp progress statistically with
// FastForward before resuming detailed execution. The hooks only
// touch the SoA scheduling state through the same transitions issue()
// uses, so the data-oriented invariants (liveM == ^doneM & ^blockedM,
// memNextM mirroring Prog[pc]) hold across a jump.

// SetFrozen gates the SM's issue stage. A frozen SM still absorbs
// responses and drains its LSU replay queue — that is exactly what the
// sampled engine's drain phase needs — but issues no new instructions,
// so the in-flight request population can only shrink.
func (s *SM) SetFrozen(v bool) { s.frozen = v }

// Quiescent reports whether the SM holds no in-flight memory state:
// nothing queued in the LSU, no line fills outstanding, no warp
// blocked on a load. A frozen SM always reaches this state once the
// memory system returns its last response.
func (s *SM) Quiescent() bool {
	if s.ReplayLen() > 0 || s.l1.MSHRCount() > 0 {
		return false
	}
	for _, b := range s.blockedM {
		if b != 0 {
			return false
		}
	}
	return true
}

// FastForward statistically advances the SM across a modeled region of
// ffTicks cycles ending at tick now: up to budget instructions retire
// in bulk, spread evenly over the live warps, with no memory traffic —
// the engine injects the skipped loads' statistics separately. The SM
// must be quiescent (see Quiescent); budget is derived from the issue
// rate calibrated in the preceding measurement window. Returns the
// instructions actually issued (less than budget when the remaining
// programs are shorter).
//
// staggerBase and jitter re-seed warp desynchronization. Each warp's
// readyAt holds the tick its last load completed during the drain —
// that spread is the in-flight latency texture the drain collapsed —
// and jitter adds a random phase offset on a memory-latency scale.
// Both matter: a drained-then-restarted machine has every warp issue
// in lockstep, and synchronized warps produce tightly clustered DRAM
// arrivals (artificially small divergence gaps). Phase dispersion
// regrows only at random-walk speed — tens of thousands of detailed
// cycles, far more than any affordable warm-up — so the jump must
// restore it explicitly. jitter may be nil for no extra dispersion.
func (s *SM) FastForward(budget, ffTicks, now, staggerBase int64, jitter func() int64) int64 {
	if budget < 0 {
		budget = 0
	}
	for wi := nextBit(s.liveM, 0); wi >= 0; wi = nextBit(s.liveM, wi+1) {
		off := s.readyAt[wi] - staggerBase
		if off < 0 {
			off = 0
		}
		if jitter != nil {
			off += jitter()
		}
		s.readyAt[wi] = now + off
	}
	var issued int64
	// Two passes: an even split first, then leftover budget from warps
	// that ran out of program redistributes to warps that did not.
	for pass := 0; pass < 2 && budget > issued; pass++ {
		live := int64(0)
		for wi := nextBit(s.liveM, 0); wi >= 0; wi = nextBit(s.liveM, wi+1) {
			if int(s.pc[wi]) < len(s.warps[wi].Prog) {
				live++
			}
		}
		if live == 0 {
			break
		}
		share := (budget - issued + live - 1) / live
		for wi := nextBit(s.liveM, 0); wi >= 0 && issued < budget; wi = nextBit(s.liveM, wi+1) {
			w := s.warps[wi]
			take := share
			if left := budget - issued; take > left {
				take = left
			}
			if rem := int64(len(w.Prog)) - int64(s.pc[wi]); take > rem {
				take = rem
			}
			if take <= 0 {
				continue
			}
			pc := int64(s.pc[wi]) + take
			s.pc[wi] = int32(pc)
			w.Issued += take
			s.InstrIssued += take
			issued += take
			if int(pc) < len(w.Prog) && w.Prog[pc].Kind != Compute {
				bitSet(s.memNextM, wi)
			} else {
				bitClear(s.memNextM, wi)
			}
			if int(pc) >= len(w.Prog) {
				bitSet(s.doneM, wi)
				bitClear(s.liveM, wi)
				w.DoneTick = now
				s.active--
				if s.active == 0 {
					s.DoneTick = now
				}
			}
		}
	}
	s.ActiveTicks += issued
	if s.active > 0 && ffTicks > issued {
		s.IdleTicks += ffTicks - issued
	}
	return issued
}
