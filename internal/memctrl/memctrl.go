// Package memctrl implements the GPU memory controller (GMC) frame of
// Section II-C: read and write queues, watermark-based write draining, and
// a pluggable transaction scheduler. The baseline schedulers — the
// throughput-optimized GMC row-sorter scheduler and the comparators of
// Section VI-C (FCFS behind WAFCFS, SBWAS, PAR-BS and ATLAS) — live here;
// the paper's warp-aware schedulers build on this frame in internal/core.
package memctrl

import (
	"dramlat/internal/dram"
	"dramlat/internal/guard"
	"dramlat/internal/memreq"
	"dramlat/internal/telemetry"
)

// WritePolicy selects how writes reach DRAM.
type WritePolicy uint8

const (
	// DrainBatch is the commonly used high/low-watermark batch drain
	// (Section II-C): writes are buffered and drained in bursts to avoid
	// frequent bus turnarounds.
	DrainBatch WritePolicy = iota
	// Interleaved services writes alongside reads with no batching, as
	// SBWAS does (Section VI-C1). It suffers frequent tWTR/tRTW
	// turnaround penalties.
	Interleaved
)

// Scheduler is a transaction scheduler: it owns the read-queue contents and
// decides which read request to dispatch to DRAM next.
type Scheduler interface {
	// Name identifies the policy ("gmc", "wg-w", ...).
	Name() string
	// Attach wires the scheduler to its controller before use.
	Attach(ctl *Controller)
	// OnEnqueue accepts a read request into the scheduler's structures.
	OnEnqueue(r *memreq.Request, now int64)
	// GroupComplete signals that no further requests of group g will
	// arrive at this controller (the group's channel-tagged request was
	// filtered by an L2 hit or MSHR merge). Schedulers that do not track
	// groups ignore it.
	GroupComplete(g memreq.GroupID, now int64)
	// NextRead removes and returns the next read to dispatch, or nil.
	// The returned request's bank must satisfy ctl.Chan.CanAccept.
	NextRead(now int64) *memreq.Request
	// Pending returns the number of reads held by the scheduler.
	Pending() int
}

// DrainObserver is implemented by schedulers that want to observe write
// drains beginning (used for the Fig 12 accounting in the WG schedulers).
type DrainObserver interface {
	OnDrainStart(now int64)
}

// SharedDemandObserver is implemented by schedulers that react to the L2
// merging another warp's miss into a group's in-flight request (the
// shared-data extension from the paper's conclusion).
type SharedDemandObserver interface {
	OnSharedDemand(g memreq.GroupID, now int64)
}

// Stats aggregates controller-level counters.
type Stats struct {
	ReadsAccepted     int64
	WritesAccepted    int64
	ReadsDone         int64
	WritesDone        int64
	DrainsStarted     int64
	DrainTicks        int64
	ReadQFullRejects  int64
	WriteQFullRejects int64
	// GroupCompleteSignals counts zero-cost group-credit messages from
	// the L2 slice.
	GroupCompleteSignals int64
}

// Controller is one per-channel GPU memory controller.
type Controller struct {
	Chan  *dram.Channel
	Sched Scheduler

	ReadCap  int // read queue entries (64 in Table II)
	WriteCap int // write queue entries (64 in Table II)
	HighWM   int // drain trigger (32)
	LowWM    int // drain release (16)
	Writes   WritePolicy
	// WriteAgeDrain starts a drain when the oldest buffered write has
	// waited this many ticks even though the high watermark has not been
	// reached, so write-light workloads cannot park the queue just below
	// the watermark forever. Zero disables the age trigger.
	WriteAgeDrain int64

	readCount int
	// writeQ is the buffered-write FIFO, head-indexed: entries before
	// wqHead are dispatched (and nil). Popping the oldest write — the
	// common case in nextWrite — advances wqHead instead of memmoving the
	// whole queue; the backing array is reset once the queue empties.
	// wqBank/wqRow mirror each entry's bank and row in flat parallel
	// slices so the oldest-hit-wins scan in nextWrite stays on contiguous
	// memory instead of dereferencing every queued request.
	writeQ      []*memreq.Request
	wqBank      []int32
	wqRow       []int32
	wqHead      int
	draining    bool
	drainTarget int  // occupancy at which the current drain releases
	wrAlt       bool // interleaved mode: alternate read/write

	// OnReadDone fires when a read's data transfer completes.
	OnReadDone func(r *memreq.Request, now int64)
	// OnWriteDone fires when a write's data transfer completes.
	OnWriteDone func(r *memreq.Request, now int64)

	// Probe receives queue enqueue/dequeue and write-drain trace events;
	// nil disables tracing (one branch per event site). ChannelID tags
	// the events with this controller's channel.
	Probe     *telemetry.Tracer
	ChannelID int

	Stats Stats
}

// New builds a controller around ch with the given scheduler and Table II
// queue parameters.
func New(ch *dram.Channel, sched Scheduler, readCap, writeCap, highWM, lowWM int) *Controller {
	ctl := &Controller{
		Chan:     ch,
		Sched:    sched,
		ReadCap:  readCap,
		WriteCap: writeCap,
		HighWM:   highWM,
		LowWM:    lowWM,
	}
	ch.OnComplete = ctl.onComplete
	sched.Attach(ctl)
	return ctl
}

func (ctl *Controller) onComplete(txn *dram.Transaction, now int64) {
	r := txn.Req
	r.Done = now
	if r.Kind == memreq.Write {
		ctl.Stats.WritesDone++
		if ctl.OnWriteDone != nil {
			ctl.OnWriteDone(r, now)
		}
		return
	}
	ctl.Stats.ReadsDone++
	if ctl.OnReadDone != nil {
		ctl.OnReadDone(r, now)
	}
}

// ReadOccupancy returns the number of reads buffered (scheduler-held).
func (ctl *Controller) ReadOccupancy() int { return ctl.readCount }

// WriteOccupancy returns the number of buffered writes.
func (ctl *Controller) WriteOccupancy() int { return len(ctl.writeQ) - ctl.wqHead }

// Draining reports whether a write drain is in progress.
func (ctl *Controller) Draining() bool { return ctl.draining }

// DrainImminent reports whether the write queue occupancy is within eight
// entries of the high water mark — the WG-W trigger (Section IV-E).
func (ctl *Controller) DrainImminent() bool {
	return ctl.Writes == DrainBatch && ctl.WriteOccupancy() >= ctl.HighWM-8
}

// AcceptRead offers a read request to the controller. It returns false
// (back-pressure) when the read queue is full.
func (ctl *Controller) AcceptRead(r *memreq.Request, now int64) bool {
	if r.BusOnly {
		// Zero-Latency-Divergence ideal: trailing requests bypass the
		// scheduler and banks, consuming only bus bandwidth (Fig 4).
		r.Arrive = now
		ctl.Stats.ReadsAccepted++
		ctl.Chan.EnqueueBusOnly(r)
		if ctl.Probe != nil {
			// Bus-only requests skip the queue, so trace the enqueue
			// and dispatch together to keep request lifecycles paired.
			ctl.Probe.EnqueueRead(now, ctl.ChannelID, r, ctl.readCount)
			ctl.Probe.DequeueRead(now, ctl.ChannelID, r, ctl.readCount)
		}
		return true
	}
	if ctl.readCount >= ctl.ReadCap {
		ctl.Stats.ReadQFullRejects++
		return false
	}
	ctl.readCount++
	r.Arrive = now
	ctl.Stats.ReadsAccepted++
	ctl.Sched.OnEnqueue(r, now)
	if ctl.Probe != nil {
		ctl.Probe.EnqueueRead(now, ctl.ChannelID, r, ctl.readCount)
	}
	return true
}

// AcceptWrite offers a write request to the controller. It returns false
// when the write queue is full.
func (ctl *Controller) AcceptWrite(r *memreq.Request, now int64) bool {
	if ctl.WriteOccupancy() >= ctl.WriteCap {
		ctl.Stats.WriteQFullRejects++
		return false
	}
	r.Arrive = now
	if h := ctl.wqHead; h > 0 && len(ctl.writeQ) == cap(ctl.writeQ) {
		// Compact instead of growing: a queue held above the low
		// watermark never empties, so without this its backing
		// arrays would reallocate as the head cycles through them.
		n := copy(ctl.writeQ, ctl.writeQ[h:])
		clear(ctl.writeQ[n:])
		ctl.writeQ = ctl.writeQ[:n]
		ctl.wqBank = ctl.wqBank[:copy(ctl.wqBank, ctl.wqBank[h:])]
		ctl.wqRow = ctl.wqRow[:copy(ctl.wqRow, ctl.wqRow[h:])]
		ctl.wqHead = 0
	}
	ctl.writeQ = append(ctl.writeQ, r)
	ctl.wqBank = append(ctl.wqBank, int32(r.Bank))
	ctl.wqRow = append(ctl.wqRow, int32(r.Row))
	ctl.Stats.WritesAccepted++
	if ctl.Probe != nil {
		ctl.Probe.EnqueueWrite(now, ctl.ChannelID, r, ctl.WriteOccupancy())
	}
	return true
}

// SharedDemand notifies the scheduler that group g's in-flight line just
// picked up another warp's demand at the L2.
func (ctl *Controller) SharedDemand(g memreq.GroupID, now int64) {
	if o, ok := ctl.Sched.(SharedDemandObserver); ok {
		o.OnSharedDemand(g, now)
	}
}

// GroupComplete forwards an L2 group-credit to the scheduler.
func (ctl *Controller) GroupComplete(g memreq.GroupID, now int64) {
	ctl.Stats.GroupCompleteSignals++
	ctl.Sched.GroupComplete(g, now)
}

// nextWrite picks the next write to dispatch: the oldest projected row hit
// if any, else the oldest write whose bank has command-queue space. The
// scan stops at the first projected hit, and removing the queue head — the
// overwhelmingly common pick during a drain — is a head-index bump rather
// than a memmove of the whole queue.
func (ctl *Controller) nextWrite() *memreq.Request {
	hit, any := -1, -1
	for i := ctl.wqHead; i < len(ctl.writeQ); i++ {
		bank := int(ctl.wqBank[i])
		if !ctl.Chan.CanAccept(bank) {
			continue
		}
		if any == -1 {
			any = i
		}
		if ctl.Chan.ProjectHit(bank, int(ctl.wqRow[i])) {
			hit = i
			break // oldest hit wins
		}
	}
	idx := hit
	if idx == -1 {
		idx = any
	}
	if idx == -1 {
		return nil
	}
	w := ctl.writeQ[idx]
	if idx == ctl.wqHead {
		ctl.writeQ[idx] = nil
		ctl.wqHead++
	} else {
		copy(ctl.writeQ[idx:], ctl.writeQ[idx+1:])
		copy(ctl.wqBank[idx:], ctl.wqBank[idx+1:])
		copy(ctl.wqRow[idx:], ctl.wqRow[idx+1:])
		ctl.writeQ[len(ctl.writeQ)-1] = nil
		ctl.writeQ = ctl.writeQ[:len(ctl.writeQ)-1]
		ctl.wqBank = ctl.wqBank[:len(ctl.wqBank)-1]
		ctl.wqRow = ctl.wqRow[:len(ctl.wqRow)-1]
	}
	if ctl.wqHead == len(ctl.writeQ) {
		ctl.writeQ = ctl.writeQ[:0]
		ctl.wqBank = ctl.wqBank[:0]
		ctl.wqRow = ctl.wqRow[:0]
		ctl.wqHead = 0
	}
	return w
}

// dispatchRead asks the scheduler for a read and enqueues it to DRAM.
func (ctl *Controller) dispatchRead(now int64) bool {
	r := ctl.Sched.NextRead(now)
	if r == nil {
		return false
	}
	if !ctl.Chan.CanAccept(r.Bank) {
		// Hot-path invariant (the Scheduler contract); a typed panic the
		// façade's recover converts into a *guard.RunError.
		guard.Invariantf("memctrl: scheduler returned read for full bank %s", r)
	}
	ctl.readCount--
	ctl.Chan.Enqueue(r)
	if ctl.Probe != nil {
		ctl.Probe.DequeueRead(now, ctl.ChannelID, r, ctl.readCount)
	}
	return true
}

// dispatchWrite moves a write into the DRAM command queues.
func (ctl *Controller) dispatchWrite(w *memreq.Request, now int64) {
	ctl.Chan.Enqueue(w)
	if ctl.Probe != nil {
		ctl.Probe.DequeueWrite(now, ctl.ChannelID, w, ctl.WriteOccupancy())
	}
}

// Tick advances the controller one cycle: it updates the drain state
// machine, dispatches at most one transaction to the DRAM command queues,
// and issues at most one DRAM command, which it returns for tracing (nil
// when the command bus idles).
func (ctl *Controller) Tick(now int64) *dram.Command {
	switch ctl.Writes {
	case DrainBatch:
		if !ctl.draining {
			occ := ctl.WriteOccupancy()
			aged := ctl.WriteAgeDrain > 0 && occ > 0 &&
				now-ctl.writeQ[ctl.wqHead].Arrive > ctl.WriteAgeDrain
			idle := occ > 0 && ctl.readCount == 0 && ctl.Chan.Idle()
			if occ >= ctl.HighWM || aged || idle {
				ctl.draining = true
				// Watermark drains stop at the low watermark;
				// age/idle drains flush the queue so stale writes
				// cannot re-trigger a turnaround every few ticks.
				ctl.drainTarget = ctl.LowWM
				if aged || idle {
					ctl.drainTarget = 0
				}
				ctl.Stats.DrainsStarted++
				if ctl.Probe != nil {
					ctl.Probe.DrainBegin(now, ctl.ChannelID, occ)
				}
				if obs, ok := ctl.Sched.(DrainObserver); ok {
					obs.OnDrainStart(now)
				}
			}
		} else if ctl.WriteOccupancy() <= ctl.drainTarget {
			ctl.draining = false
			if ctl.Probe != nil {
				ctl.Probe.DrainEnd(now, ctl.ChannelID, ctl.WriteOccupancy())
			}
		}
		if ctl.draining {
			ctl.Stats.DrainTicks++
			if w := ctl.nextWrite(); w != nil {
				ctl.dispatchWrite(w, now)
			}
		} else {
			ctl.dispatchRead(now)
		}
	case Interleaved:
		// Writes compete with reads without batch draining (Section
		// VI-C1): once a handful of writes are buffered they alternate
		// with reads, exposing the bus-turnaround cost that the
		// batch-drain policy avoids.
		occ := ctl.WriteOccupancy()
		tryWrite := ctl.wrAlt && occ >= 4
		if occ >= ctl.WriteCap-1 || (occ > 0 && ctl.readCount == 0) {
			tryWrite = true
		}
		if tryWrite {
			if w := ctl.nextWrite(); w != nil {
				ctl.dispatchWrite(w, now)
				ctl.wrAlt = false
			} else if ctl.dispatchRead(now) {
				ctl.wrAlt = true
			}
		} else {
			if ctl.dispatchRead(now) {
				ctl.wrAlt = true
			} else if w := ctl.nextWrite(); w != nil {
				ctl.dispatchWrite(w, now)
				ctl.wrAlt = false
			}
		}
	}
	return ctl.Chan.Tick(now)
}

// Idle reports whether the controller holds no work at all.
func (ctl *Controller) Idle() bool {
	return ctl.readCount == 0 && ctl.WriteOccupancy() == 0 && ctl.Chan.Idle()
}

// FlushTelemetry closes any trace span still open at end of run (a drain
// in progress when the last warp retired), so begin/end pairs balance.
func (ctl *Controller) FlushTelemetry(now int64) {
	if ctl.Probe != nil && ctl.draining {
		ctl.Probe.DrainEnd(now, ctl.ChannelID, ctl.WriteOccupancy())
	}
}
