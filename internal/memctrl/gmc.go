package memctrl

import "dramlat/internal/memreq"

// GMC is the throughput-optimized baseline GPU memory controller scheduler
// of Section II-C. The row sorter forms row-hit streams per bank; the
// transaction scheduler picks a stream per bank and interleaves banks,
// bounded by an age-based starvation threshold and a maximum row-hit streak
// limit.
type GMC struct {
	ctl *Controller
	rs  *RowSorter

	// AgeThresh is the starvation guard: when the oldest pending request
	// of a bank has waited this long, its stream is served next even if
	// the active stream still has row hits.
	AgeThresh int64
	// MaxStreak caps the number of consecutive requests served from one
	// row-hit stream while other streams wait on the same bank.
	MaxStreak int

	streak []int // per-bank current row-hit streak
	rrBank int
}

// NewGMC returns the baseline scheduler with the default starvation
// parameters.
func NewGMC() *GMC { return &GMC{AgeThresh: 2000, MaxStreak: 16} }

// Name implements Scheduler.
func (g *GMC) Name() string { return "gmc" }

// Attach implements Scheduler.
func (g *GMC) Attach(ctl *Controller) {
	g.ctl = ctl
	g.rs = NewRowSorter(ctl.Chan.NumBanks)
	g.streak = make([]int, ctl.Chan.NumBanks)
}

// OnEnqueue implements Scheduler.
func (g *GMC) OnEnqueue(r *memreq.Request, now int64) { g.rs.Add(r, now) }

// GroupComplete implements Scheduler (the GMC is not warp-aware).
func (g *GMC) GroupComplete(memreq.GroupID, int64) {}

// Pending implements Scheduler.
func (g *GMC) Pending() int { return g.rs.Count() }

// NextRead implements Scheduler: round-robin across banks; within a bank,
// keep streaming row hits from the stream matching the projected open row
// until the streak cap or the age threshold forces a switch to the oldest
// stream.
func (g *GMC) NextRead(now int64) *memreq.Request {
	return g.rs.serveFrom(g.rrBank, g.ctl.Chan, func(bank int) *memreq.Request { return g.serve(bank, now) })
}

// serve pops bank's next read, or returns nil when the bank has none,
// charging the pick to the bank's streak and moving the round-robin
// past the bank.
func (g *GMC) serve(bank int, now int64) *memreq.Request {
	s := g.pickStream(bank, now)
	if s == nil {
		return nil
	}
	if s.row == g.ctl.Chan.SchedRow(bank) {
		g.streak[bank]++
	} else {
		g.streak[bank] = 1
	}
	g.rrBank = (bank + 1) % g.ctl.Chan.NumBanks
	return g.rs.PopFrom(s)
}

func (g *GMC) pickStream(bank int, now int64) *stream {
	active := g.rs.StreamFor(bank, g.ctl.Chan.SchedRow(bank))
	oldest := g.rs.OldestStream(bank)
	if oldest == nil {
		return nil
	}
	if active == nil || len(active.reqs) == 0 {
		return oldest
	}
	if active != oldest {
		// Starvation guards: an aged-out older request, or an
		// exhausted streak budget, preempts the row-hit stream.
		if now-oldest.oldestArrive() > g.AgeThresh {
			return oldest
		}
		if g.streak[bank] >= g.MaxStreak {
			return oldest
		}
	}
	return active
}

// FCFS services reads strictly in arrival order; the head of line blocks
// when its bank's command queue is full. Combined with the
// non-interleaving interconnect mode it models the WAFCFS comparator of
// Yuan et al. [51] (Section VI-C2), the only scheduler that uses it.
type FCFS struct {
	ctl *Controller
	q   []*memreq.Request
}

// NewFCFS returns a strict first-come-first-served scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Scheduler.
func (f *FCFS) Name() string { return "fcfs" }

// Attach implements Scheduler.
func (f *FCFS) Attach(ctl *Controller) { f.ctl = ctl }

// OnEnqueue implements Scheduler.
func (f *FCFS) OnEnqueue(r *memreq.Request, _ int64) { f.q = append(f.q, r) }

// GroupComplete implements Scheduler.
func (f *FCFS) GroupComplete(memreq.GroupID, int64) {}

// Pending implements Scheduler.
func (f *FCFS) Pending() int { return len(f.q) }

// NextRead implements Scheduler.
func (f *FCFS) NextRead(int64) *memreq.Request {
	if len(f.q) == 0 || !f.ctl.Chan.CanAccept(f.q[0].Bank) {
		return nil
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r
}
