package memctrl

import "dramlat/internal/memreq"

// PARBS reproduces Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda
// [40]) as discussed in Section VI-C3. PAR-BS forms batches of the oldest
// requests of every thread (here: warp) across all banks to guarantee
// fairness, ranks threads within the batch shortest-job-first by their
// maximum per-bank load (the "max rule"), and services marked requests
// with FR-FCFS order beneath the rank.
//
// The paper's point is that PAR-BS batches are the *opposite* of
// warp-groups: a batch deliberately mixes many warps' requests per bank, so
// it does not reduce latency divergence for any single warp. This
// implementation lets the harness quantify that argument.
type PARBS struct {
	ctl *Controller
	// MarkingCap bounds requests marked per (warp, bank) per batch (5 in
	// the original paper).
	MarkingCap int

	queued []*memreq.Request // unmarked arrivals
	batch  []*memreq.Request // marked requests being serviced
	rank   map[warpKey]int   // warp -> rank (smaller = higher priority)
}

// NewPARBS returns the comparator with the original marking cap of 5.
func NewPARBS() *PARBS { return &PARBS{MarkingCap: 5} }

// Name implements Scheduler.
func (p *PARBS) Name() string { return "parbs" }

// Attach implements Scheduler.
func (p *PARBS) Attach(ctl *Controller) { p.ctl = ctl }

// OnEnqueue implements Scheduler.
func (p *PARBS) OnEnqueue(r *memreq.Request, _ int64) { p.queued = append(p.queued, r) }

// GroupComplete implements Scheduler.
func (p *PARBS) GroupComplete(memreq.GroupID, int64) {}

// Pending implements Scheduler.
func (p *PARBS) Pending() int { return len(p.queued) + len(p.batch) }

// formBatch marks up to MarkingCap oldest requests per (warp, bank) and
// computes the shortest-job-first warp ranking over the marked set.
func (p *PARBS) formBatch() {
	if len(p.queued) == 0 {
		return
	}
	type wb struct {
		w warpKey
		b int
	}
	marked := make(map[wb]int)
	var batch, rest []*memreq.Request
	for _, r := range p.queued { // queued is in arrival order
		k := wb{warpOf(r), r.Bank}
		if marked[k] < p.MarkingCap {
			marked[k]++
			batch = append(batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	p.batch = batch
	p.queued = rest

	// Rank warps: primary key max per-bank marked load (the max rule),
	// secondary total marked load; fewer first (shortest job).
	maxLoad := map[warpKey]int{}
	total := map[warpKey]int{}
	for k, n := range marked {
		total[k.w] += n
		if n > maxLoad[k.w] {
			maxLoad[k.w] = n
		}
	}
	type stat struct {
		w        warpKey
		max, tot int
	}
	var stats []stat
	for w := range maxLoad {
		stats = append(stats, stat{w, maxLoad[w], total[w]})
	}
	// Deterministic insertion sort by (max, tot, warp id).
	for i := 1; i < len(stats); i++ {
		for j := i; j > 0; j-- {
			a, b := stats[j-1], stats[j]
			if b.max < a.max || (b.max == a.max && (b.tot < a.tot ||
				(b.tot == a.tot && (b.w.sm < a.w.sm || (b.w.sm == a.w.sm && b.w.warp < a.w.warp))))) {
				stats[j-1], stats[j] = stats[j], stats[j-1]
			} else {
				break
			}
		}
	}
	p.rank = make(map[warpKey]int, len(stats))
	for i, s := range stats {
		p.rank[s.w] = i
	}
}

func warpOf(r *memreq.Request) warpKey { return warpKey{r.Group.SM, r.Group.Warp} }

// NextRead implements Scheduler: within the current batch, pick by
// (row-hit, warp rank, age); start a new batch when the current one drains.
func (p *PARBS) NextRead(now int64) *memreq.Request {
	if len(p.batch) == 0 {
		p.formBatch()
	}
	pool := p.batch
	fromBatch := true
	if len(pool) == 0 {
		pool = p.queued
		fromBatch = false
	}
	best := -1
	bestHit := false
	bestRank := 1 << 30
	for i, r := range pool {
		if !p.ctl.Chan.CanAccept(r.Bank) {
			continue
		}
		hit := p.ctl.Chan.ProjectHit(r.Bank, r.Row)
		rank := p.rank[warpOf(r)]
		if !fromBatch {
			rank = 0
		}
		better := false
		switch {
		case best == -1:
			better = true
		case hit != bestHit:
			better = hit
		case rank != bestRank:
			better = rank < bestRank
		}
		// Age: pool is arrival ordered, so the first seen wins ties.
		if better {
			best, bestHit, bestRank = i, hit, rank
		}
	}
	if best == -1 {
		return nil
	}
	r := pool[best]
	if fromBatch {
		p.batch = append(p.batch[:best], p.batch[best+1:]...)
	} else {
		p.queued = append(p.queued[:best], p.queued[best+1:]...)
	}
	return r
}

// ATLASState is the cross-controller least-attained-service table shared by
// the six ATLAS schedulers (Kim et al. [30], Section VI-C3). ATLAS
// exchanges information only at long quantum boundaries — far too coarse to
// coordinate at warp granularity, which is the paper's criticism.
type ATLASState struct {
	// QuantumTicks is the rank-update period (the original uses ~10M
	// cycles; scaled down to stay meaningful within our kernels).
	QuantumTicks int64

	attained    map[warpKey]int64 // service accumulated this quantum
	rank        map[warpKey]int
	nextUpdate  int64
	totalRanked int
}

// NewATLASState builds the shared table.
func NewATLASState(quantum int64) *ATLASState {
	return &ATLASState{
		QuantumTicks: quantum,
		attained:     make(map[warpKey]int64),
		rank:         make(map[warpKey]int),
	}
}

// note records service (in bursts) for a warp.
func (a *ATLASState) note(w warpKey, bursts int64) { a.attained[w] += bursts }

// rankOf returns the warp's priority rank (smaller = less attained service
// = higher priority). Unranked warps (first seen this quantum) get top
// priority, matching ATLAS's bias toward least-attained service.
func (a *ATLASState) rankOf(w warpKey) int {
	if r, ok := a.rank[w]; ok {
		return r
	}
	return -1
}

// maybeUpdate recomputes ranks at quantum boundaries.
func (a *ATLASState) maybeUpdate(now int64) {
	if now < a.nextUpdate {
		return
	}
	a.nextUpdate = now + a.QuantumTicks
	type stat struct {
		w warpKey
		s int64
	}
	var stats []stat
	for w, s := range a.attained {
		stats = append(stats, stat{w, s})
	}
	for i := 1; i < len(stats); i++ {
		for j := i; j > 0; j-- {
			x, y := stats[j-1], stats[j]
			if y.s < x.s || (y.s == x.s && (y.w.sm < x.w.sm || (y.w.sm == x.w.sm && y.w.warp < x.w.warp))) {
				stats[j-1], stats[j] = stats[j], stats[j-1]
			} else {
				break
			}
		}
	}
	a.rank = make(map[warpKey]int, len(stats))
	for i, s := range stats {
		a.rank[s.w] = i
	}
	a.totalRanked = len(stats)
	// Exponentially age attained service like the original.
	for w := range a.attained {
		a.attained[w] /= 2
	}
}

// ATLAS is the per-controller scheduler sharing an ATLASState.
type ATLAS struct {
	ctl   *Controller
	state *ATLASState
	rs    *RowSorter
}

// NewATLAS returns a controller scheduler bound to the shared state.
func NewATLAS(state *ATLASState) *ATLAS { return &ATLAS{state: state} }

// Name implements Scheduler.
func (a *ATLAS) Name() string { return "atlas" }

// Attach implements Scheduler.
func (a *ATLAS) Attach(ctl *Controller) {
	a.ctl = ctl
	a.rs = NewRowSorter(ctl.Chan.NumBanks)
}

// OnEnqueue implements Scheduler.
func (a *ATLAS) OnEnqueue(r *memreq.Request, now int64) { a.rs.Add(r, now) }

// GroupComplete implements Scheduler.
func (a *ATLAS) GroupComplete(memreq.GroupID, int64) {}

// Pending implements Scheduler.
func (a *ATLAS) Pending() int { return a.rs.Count() }

// NextRead implements Scheduler: priority = (LAS rank, row hit, age).
func (a *ATLAS) NextRead(now int64) *memreq.Request {
	a.state.maybeUpdate(now)
	var best *stream
	bestIdx := -1
	bestRank := 1 << 30
	bestHit := false
	for bank := range a.rs.perBank {
		if !a.ctl.Chan.CanAccept(bank) {
			continue
		}
		for _, s := range a.rs.perBank[bank] {
			for idx, r := range s.reqs {
				rank := a.state.rankOf(warpOf(r))
				hit := idx == 0 && s.row == a.ctl.Chan.SchedRow(bank)
				better := false
				switch {
				case best == nil:
					better = true
				case rank != bestRank:
					better = rank < bestRank
				case hit != bestHit:
					better = hit
				case r.Arrive < best.reqs[bestIdx].Arrive:
					better = true
				}
				if better {
					best, bestIdx, bestRank, bestHit = s, idx, rank, hit
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	r := best.reqs[bestIdx]
	best.reqs = append(best.reqs[:bestIdx], best.reqs[bestIdx+1:]...)
	a.rs.count--
	if len(best.reqs) == 0 {
		a.rs.retire(best)
	}
	a.state.note(warpOf(r), 2)
	return r
}
