// Package core implements the paper's primary contribution: warp-aware DRAM
// transaction scheduling (Section IV).
//
// The WarpScheduler replaces the baseline GMC's row sorter with a Warp
// Sorter and Bank Table (Fig 6). Requests are batched by warp-group (one
// dynamic load of one warp); completed groups are ranked by a bank-aware
// shortest-job-first score that estimates each group's completion time from
// the row hit/miss mix of its requests and the work already queued at every
// bank (Section IV-B). The four cumulative policies of the paper are
// feature flags on one scheduler:
//
//	WG    — per-controller warp-group SJF scheduling (Section IV-B)
//	WG-M  — + cross-controller score coordination    (Section IV-C)
//	WG-Bw — + MERB-bounded row-miss overlap           (Section IV-D)
//	WG-W  — + warp-aware write draining               (Section IV-E)
//	WG-Sh — + shared-data group priority              (Conclusion, future work)
package core

import (
	"math/bits"

	"dramlat/internal/coordnet"
	"dramlat/internal/memctrl"
	"dramlat/internal/memreq"
	"dramlat/internal/telemetry"
)

// Score constants of Section IV-B1: a projected row hit costs 1 unit, a
// projected row miss 3 units (36 ns vs 12 ns of DRAM array access time).
const (
	scoreHit  = 1
	scoreMiss = 3
)

// group is one Warp Sorter entry: the requests of a single warp-group
// pending at this controller.
type group struct {
	id          memreq.GroupID
	pending     []*memreq.Request
	complete    bool // last-tagged request (or L2 group credit) seen
	dispatched  int  // requests already sent to command queues
	firstArrive int64
	scoreAdj    int // priority bonus accumulated from WG-M messages
	// boostUntil bounds the WG-M score cut: another controller began
	// servicing this warp-group with a smaller completion-time score
	// than ours, so until this tick the reduced score applies — that is
	// the alignment window in which servicing it here actually shortens
	// the warp's stall (Section IV-C). A stale boost (the remote service
	// long finished) must not distort the SJF order.
	boostUntil int64
	// channels is the number of controllers the whole group touches
	// (from Request.GroupChannels); remoteMask collects the controllers
	// that reported selecting the group. When every other controller has
	// serviced its share, this controller is the warp's sole remaining
	// blocker and the group takes absolute priority.
	channels   int
	remoteMask uint32

	// next links the groups that share a warp slot (WarpScheduler.live).
	next *group
}

// soleBlocker reports that every other controller already serviced its
// share of the group.
func (g *group) soleBlocker() bool {
	if g.channels <= 1 {
		return false
	}
	n := 0
	for m := g.remoteMask; m != 0; m &= m - 1 {
		n++
	}
	return n >= g.channels-1
}

// boosted reports whether the group's WG-M priority is still fresh.
func (g *group) boosted(now int64) bool { return now < g.boostUntil }

// Stats aggregates warp-scheduler activity, including the Fig 12 write-
// drain accounting.
type Stats struct {
	GroupsSelected      int64
	IncompleteFallbacks int64
	AgePromotions       int64
	MERBFillers         int64
	OrphanRideAlongs    int64
	UnitRushDispatches  int64
	CoordSent           int64
	CoordApplied        int64
	CoordSoleBlocker    int64
	SharedDemands       int64
	// Fig 12: warp-groups pending when a write drain started, and how
	// many of those were unit-sized or contained orphaned (1-2 leftover)
	// requests.
	DrainStalledGroups       int64
	DrainStalledUnitOrOrphan int64
}

// WarpScheduler implements memctrl.Scheduler with the warp-aware policies.
type WarpScheduler struct {
	// Feature flags (cumulative in the paper's evaluation).
	Coordinate bool // WG-M
	MERB       bool // WG-Bw
	WriteAware bool // WG-W
	// SharedPriority implements the extension sketched in the paper's
	// conclusion: "prioritizing warp-groups that contain blocks of data
	// that are shared by multiple warps". When the L2 merges another
	// warp's miss into a group's in-flight request, finishing that group
	// unblocks several warps at once, so its score drops.
	SharedPriority bool

	// ChannelID identifies this controller on the coordination network.
	ChannelID int
	// Net is the coordination fabric; nil disables coordination even if
	// Coordinate is set.
	Net *coordnet.Network

	// AgeThresh promotes the oldest complete group regardless of score
	// after this many ticks (starvation guard), and also lets an
	// incomplete group be scheduled if it has waited this long without
	// its tail (lost-tag robustness).
	AgeThresh int64
	// BoostWindow is how long (ticks) a WG-M coordination boost stays
	// decisive; roughly the remote controller's group service time.
	BoostWindow int64

	// CountScore is an ablation: rank groups by raw request count
	// instead of the bank-state-aware completion-time score. Section
	// IV-B argues this is inadequate for irregular applications; the
	// ablation bench quantifies it.
	CountScore bool
	// NoOrphanControl is an ablation: disable the orphan-control rule of
	// Section IV-D (row misses may strand 1-2 row hits behind them).
	NoOrphanControl bool

	// Probe receives MERB streak begin/end trace events; nil disables
	// tracing (one branch per event site).
	Probe *telemetry.Tracer

	ctl        *memctrl.Controller
	merbTable  []int
	merbStreak []bool // per bank: a filler streak is protecting the row

	// live[SM*warpsPerSM+Warp] heads the chain of that warp's groups in
	// the sorter; the last chain holds the ungrouped pseudo-groups and any
	// ID outside the machine shape. A warp has one load in flight, except
	// under the Fig 4 zero-divergence ideal.
	live       []*group
	sms        int
	warpsPerSM int
	order      []*group // arrival order
	current    *group
	count      int
	// groupFree recycles retired group entries (and their pending-slice
	// capacity): the sorter churns through one group per warp load, and
	// the live population is bounded by the read queue, so the steady
	// state should reuse rather than allocate.
	groupFree []*group

	bankPending []int // pending (undispatched) requests per bank

	// fillers[b] lists the pending requests to bank b in arrival order,
	// for the WG-Bw row-hit filler search; it holds exactly the requests
	// in the groups' pending lists. dispatch removes entries eagerly:
	// request memory is pooled, so a stale pointer left here could come
	// back as an unrelated live request.
	fillers [][]*memreq.Request

	Stats Stats
}

// Option configures a WarpScheduler.
type Option func(*WarpScheduler)

// WithCoordination enables WG-M cross-controller score coordination.
func WithCoordination(net *coordnet.Network, channelID int) Option {
	return func(w *WarpScheduler) {
		w.Coordinate = true
		w.Net = net
		w.ChannelID = channelID
	}
}

// WithMERB enables the WG-Bw bandwidth optimization.
func WithMERB() Option { return func(w *WarpScheduler) { w.MERB = true } }

// WithWriteAware enables the WG-W warp-aware write-drain policy.
func WithWriteAware() Option { return func(w *WarpScheduler) { w.WriteAware = true } }

// WithSharedPriority enables the shared-data extension from the paper's
// conclusion (multi-warp demand raises a group's priority).
func WithSharedPriority() Option { return func(w *WarpScheduler) { w.SharedPriority = true } }

// New builds a warp-aware scheduler for a machine of sms SMs with
// warpsPerSM warps each; with no options it is the plain WG policy of
// Section IV-B.
func New(sms, warpsPerSM int, opts ...Option) *WarpScheduler {
	w := &WarpScheduler{
		AgeThresh:   2000,
		BoostWindow: 256,
		live:        make([]*group, sms*warpsPerSM+1),
		sms:         sms,
		warpsPerSM:  warpsPerSM,
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Name implements memctrl.Scheduler.
func (w *WarpScheduler) Name() string {
	switch {
	case w.SharedPriority:
		return "wg-sh"
	case w.WriteAware:
		return "wg-w"
	case w.MERB:
		return "wg-bw"
	case w.Coordinate:
		return "wg-m"
	default:
		return "wg"
	}
}

// Attach implements memctrl.Scheduler.
func (w *WarpScheduler) Attach(ctl *memctrl.Controller) {
	w.ctl = ctl
	w.bankPending = make([]int, ctl.Chan.NumBanks)
	w.merbTable = ctl.Chan.T.MERBTable(ctl.Chan.NumBanks)
	w.merbStreak = make([]bool, ctl.Chan.NumBanks)
	// One flat backing array: a bank's list never outgrows the read
	// queue, so the per-bank lists never reallocate.
	n := ctl.Chan.NumBanks
	flat := make([]*memreq.Request, n*ctl.ReadCap)
	w.fillers = make([][]*memreq.Request, n)
	for b := range w.fillers {
		w.fillers[b] = flat[b*ctl.ReadCap : b*ctl.ReadCap : (b+1)*ctl.ReadCap]
	}
}

// Pending implements memctrl.Scheduler.
func (w *WarpScheduler) Pending() int { return w.count }

// groupKey folds ungrouped reads (which have no warp identity) into
// single-request pseudo-groups so they flow through the same machinery.
// Request IDs are per-creator streams (stream<<40 | serial), so the key
// carries the stream in Warp and the serial in Load: truncating the ID to
// 32 bits alone would collide across streams.
func groupKey(r *memreq.Request) (memreq.GroupID, bool) {
	if r.Group.Valid() {
		return r.Group, false
	}
	return memreq.GroupID{SM: 0xffff, Warp: uint16(r.ID >> 40), Load: uint32(r.ID)}, true
}

// chain returns the head of key's group chain.
func (w *WarpScheduler) chain(key memreq.GroupID) **group {
	return &w.live[key.WarpSlot(w.sms, w.warpsPerSM)]
}

// lookup returns key's group, or nil.
func (w *WarpScheduler) lookup(key memreq.GroupID) *group {
	for g := *w.chain(key); g != nil; g = g.next {
		if g.id == key {
			return g
		}
	}
	return nil
}

// OnEnqueue implements memctrl.Scheduler.
func (w *WarpScheduler) OnEnqueue(r *memreq.Request, now int64) {
	key, pseudo := groupKey(r)
	g := w.lookup(key)
	if g == nil {
		if n := len(w.groupFree); n > 0 {
			g = w.groupFree[n-1]
			w.groupFree = w.groupFree[:n-1]
			// A retired group's pending slice is empty but its capacity
			// tail may still hold pooled-request pointers; clear them so
			// the recycled entry starts clean.
			pend := g.pending[:cap(g.pending)]
			for i := range pend {
				pend[i] = nil
			}
			*g = group{id: key, firstArrive: now, pending: pend[:0]}
		} else {
			g = &group{id: key, firstArrive: now}
		}
		head := w.chain(key)
		g.next = *head
		*head = g
		w.order = append(w.order, g)
	}
	g.pending = append(g.pending, r)
	if int(r.GroupChannels) > g.channels {
		g.channels = int(r.GroupChannels)
	}
	if r.LastInChannel || pseudo {
		g.complete = true
	}
	w.count++
	w.bankPending[r.Bank]++
	w.fillers[r.Bank] = append(w.fillers[r.Bank], r)
}

// GroupComplete implements memctrl.Scheduler: the L2 slice signals that the
// group's channel-tagged request was filtered (cache hit or MSHR merge), so
// no further requests will arrive.
func (w *WarpScheduler) GroupComplete(id memreq.GroupID, now int64) {
	if g := w.lookup(id); g != nil {
		g.complete = true
		if len(g.pending) == 0 {
			w.retire(g)
		}
		return
	}
	// A credit for a fully filtered group: none of its requests reached
	// this controller, so our share is trivially done. Tell the other
	// controllers (score 0) so their sole-blocker detection stays exact.
	if w.Coordinate && w.Net != nil && id.Valid() {
		w.Net.Broadcast(w.ChannelID, id, 0, now)
		w.Stats.CoordSent++
	}
}

// DeliverScore applies a WG-M coordination message from controller `from`:
// if our local completion-time score LC for the group exceeds the remote
// score RC, the group's local score is decreased by (LC-RC) so that this
// controller stops delaying a warp that is about to finish elsewhere
// (Section IV-C). Once every other controller touched by the group has
// reported servicing it, the group becomes this controller's sole-blocker
// tier: the warp is stalled on us alone.
func (w *WarpScheduler) DeliverScore(id memreq.GroupID, from, remoteScore int, now int64) {
	g := w.lookup(id)
	if g == nil {
		return
	}
	g.remoteMask |= 1 << uint(from)
	if !g.soleBlocker() {
		// Not yet the warp's last outstanding controller: record the
		// sighting but leave the SJF order alone. (Applying the score
		// cut on every remote selection reorders a quarter of the
		// schedule and costs more row locality than the alignment
		// recovers — see the wg-m ablation bench.)
		return
	}
	w.Stats.CoordSoleBlocker++
	lc := w.score(g, now)
	if lc > remoteScore {
		g.scoreAdj += lc - remoteScore
		g.boostUntil = now + w.BoostWindow
		w.Stats.CoordApplied++
	}
}

// OnSharedDemand implements memctrl.SharedDemandObserver: another warp's
// miss just merged into one of this group's in-flight lines, so completing
// the group now unblocks multiple warps. The group's completion-time score
// drops by one row-hit unit per sharer (bounded by the fresh-boost window
// like WG-M adjustments).
func (w *WarpScheduler) OnSharedDemand(id memreq.GroupID, now int64) {
	if !w.SharedPriority {
		return
	}
	g := w.lookup(id)
	if g == nil {
		return
	}
	g.scoreAdj += scoreHit
	if until := now + w.BoostWindow; until > g.boostUntil {
		g.boostUntil = until
	}
	w.Stats.SharedDemands++
}

// PollCoordination drains this controller's coordination-network ports and
// applies the received scores. The system glue calls it once per tick.
func (w *WarpScheduler) PollCoordination(now int64) {
	if !w.Coordinate || w.Net == nil {
		return
	}
	for _, m := range w.Net.Deliver(w.ChannelID, now) {
		w.DeliverScore(m.Group, m.From, m.Score, now)
	}
}

// score estimates the completion time of a group: for each bank touched by
// the group, the work already queued at that bank (Channel.QueuedScore)
// plus the group's own requests scored 1/3 by projected hit/miss, where the
// projection threads the group's own row changes through each bank. The
// group's score is the maximum over its banks (its last-finishing bank),
// minus any WG-M adjustment (Section IV-B1, IV-C).
func (w *WarpScheduler) score(g *group, now int64) int {
	s, _ := w.scoreAndHits(g, now)
	return s
}

// scoreAndHits returns the group's score and its projected row-hit count,
// both read from live bank state on every call.
func (w *WarpScheduler) scoreAndHits(g *group, now int64) (score, hits int) {
	if w.CountScore {
		// Ablation: shortest-request-count-first, blind to bank state.
		s := len(g.pending)
		if g.boosted(now) {
			s -= g.scoreAdj
			if s < 0 {
				s = 0
			}
		}
		return s, 0
	}
	type acc struct {
		row   int
		total int
	}
	var banks [32]acc // gpu.Config.Validate caps NumBanks at 32
	var touched uint32
	ch := w.ctl.Chan
	for _, r := range g.pending {
		b := r.Bank
		if bit := uint32(1) << uint(b); touched&bit == 0 {
			banks[b] = acc{row: ch.SchedRow(b), total: ch.QueuedScore(b)}
			touched |= bit
		}
		if banks[b].row == r.Row {
			banks[b].total += scoreHit
			hits++
		} else {
			banks[b].total += scoreMiss
			banks[b].row = r.Row
		}
	}
	for m := touched; m != 0; m &= m - 1 {
		if t := banks[bits.TrailingZeros32(m)].total; t > score {
			score = t
		}
	}
	if g.boosted(now) {
		score -= g.scoreAdj
	}
	if score < 0 {
		score = 0
	}
	return score, hits
}

// selectGroup picks the next warp-group to service: the completed group
// with the smallest score; ties prefer more row hits (DRAM power), then
// fewer requests (less command-bus occupancy), then age. The starvation
// guard promotes the oldest complete group past AgeThresh; the incomplete
// fallback prevents read-queue-full deadlock.
func (w *WarpScheduler) selectGroup(now int64) *group {
	unitPref := w.WriteAware && w.ctl.DrainImminent()
	var best *group
	bestScore, bestHits := 0, 0
	var oldestComplete, oldestAny *group
	for _, g := range w.order {
		if len(g.pending) == 0 {
			continue
		}
		if oldestAny == nil {
			oldestAny = g
		}
		if !g.complete {
			continue
		}
		if oldestComplete == nil {
			oldestComplete = g
		}
		s, h := w.scoreAndHits(g, now)
		better := false
		switch {
		case best == nil:
			better = true
		case unitPref && (len(g.pending) == 1) != (len(best.pending) == 1):
			// WG-W: with a write drain imminent, unit warp-groups
			// outrank everything regardless of score (Section IV-E).
			better = len(g.pending) == 1
		case w.Coordinate && g.soleBlocker() != best.soleBlocker():
			// Every other controller already serviced this group:
			// its warp is stalled on us alone, so finishing it is a
			// direct stall reduction (Section IV-C, the cross-
			// channel form of the Fig 5 key idea).
			better = g.soleBlocker()
		case s < bestScore:
			better = true
		case s == bestScore && g.boosted(now) != best.boosted(now):
			// Prefer the remote-started group on ties.
			better = g.boosted(now)
		case s == bestScore && (h > bestHits ||
			(h == bestHits && len(g.pending) < len(best.pending))):
			better = true
		}
		if better {
			best, bestScore, bestHits = g, s, h
		}
	}
	if oldestComplete != nil && now-oldestComplete.firstArrive > w.AgeThresh {
		w.Stats.AgePromotions++
		best = oldestComplete
	}
	if best == nil && oldestAny != nil {
		// No complete group. Fall back to the oldest incomplete group
		// when the read queue is backing up (its own tail may be stuck
		// behind the full queue) or it has waited too long.
		if w.count >= w.ctl.ReadCap*3/4 || now-oldestAny.firstArrive > w.AgeThresh {
			w.Stats.IncompleteFallbacks++
			best = oldestAny
		}
	}
	if best != nil {
		w.Stats.GroupsSelected++
		if w.Coordinate && w.Net != nil && best.id.Valid() {
			w.Net.Broadcast(w.ChannelID, best.id, w.score(best, now), now)
			w.Stats.CoordSent++
		}
	}
	return best
}

// NextRead implements memctrl.Scheduler.
func (w *WarpScheduler) NextRead(now int64) *memreq.Request {
	if w.current == nil || w.exhausted(w.current) {
		w.current = w.selectGroup(now)
		if w.current == nil {
			return nil
		}
		// WG-W accounting: selections that jumped the score order
		// because a drain was imminent and the group was unit-sized.
		if w.WriteAware && w.ctl.DrainImminent() && len(w.current.pending) == 1 {
			w.Stats.UnitRushDispatches++
		}
	}

	r := w.nextFromGroup(w.current)
	if r == nil {
		return nil // all of the group's target banks are full; wait
	}

	// WG-Bw: before letting a projected row miss interrupt a row-hit
	// streak, require the bank to have transferred its Minimum Efficient
	// Row Burst; fill the gap with pending row hits from any warp, and
	// let 1-2 orphan hits ride along (Section IV-D).
	if w.MERB {
		if filler := w.merbFiller(r); filler != nil {
			if w.Probe != nil && !w.merbStreak[filler.Bank] {
				w.merbStreak[filler.Bank] = true
				w.Probe.MERBStreakBegin(now, w.ChannelID, filler.Bank, filler.Row)
			}
			return w.dispatch(filler)
		}
		if w.Probe != nil && w.merbStreak[r.Bank] {
			// The protected miss proceeds: the filler streak is over.
			w.merbStreak[r.Bank] = false
			w.Probe.MERBStreakEnd(now, w.ChannelID, r.Bank)
		}
	}
	return w.dispatch(r)
}

// FlushTelemetry closes any MERB streak span still open at end of run, so
// begin/end pairs balance in the exported trace.
func (w *WarpScheduler) FlushTelemetry(now int64) {
	if w.Probe == nil {
		return
	}
	for b, open := range w.merbStreak {
		if open {
			w.merbStreak[b] = false
			w.Probe.MERBStreakEnd(now, w.ChannelID, b)
		}
	}
}

// exhausted reports whether g has no undispatched requests left to give.
func (w *WarpScheduler) exhausted(g *group) bool { return len(g.pending) == 0 }

// nextFromGroup returns the first dispatchable pending request of g (its
// bank must have command-queue space), or nil.
func (w *WarpScheduler) nextFromGroup(g *group) *memreq.Request {
	for _, r := range g.pending {
		if w.ctl.Chan.CanAccept(r.Bank) {
			return r
		}
	}
	return nil
}

// merbFiller returns a pending row-hit request that should be serviced
// before the projected-miss request r, or nil if r may proceed.
func (w *WarpScheduler) merbFiller(r *memreq.Request) *memreq.Request {
	ch := w.ctl.Chan
	openRow := ch.SchedRow(r.Bank)
	if openRow == r.Row || openRow < 0 {
		return nil // not a miss, or bank closed (nothing to protect)
	}
	// The oldest pending hit on the open row is the filler; counting
	// stops at 3, enough for the orphan rule.
	var filler *memreq.Request
	hits := 0
	for _, p := range w.fillers[r.Bank] {
		if p.Row != openRow {
			continue
		}
		if filler == nil {
			filler = p
		}
		if hits++; hits == 3 {
			break
		}
	}
	if filler == nil {
		return nil
	}
	busy := w.banksWithWork()
	merb := w.merbTable[busy-1]
	if ch.HitsSinceAct(r.Bank) < merb {
		w.Stats.MERBFillers++
		return filler
	}
	// Orphan control: do not leave behind just one or two hits.
	if !w.NoOrphanControl && hits <= 2 {
		w.Stats.OrphanRideAlongs++
		return filler
	}
	return nil
}

// banksWithWork counts banks with either queued transactions or pending
// sorter requests (the MERB table index).
func (w *WarpScheduler) banksWithWork() int {
	n := 0
	for b := 0; b < w.ctl.Chan.NumBanks; b++ {
		if w.bankPending[b] > 0 || w.ctl.Chan.QueuedTxns(b) > 0 {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// dispatch removes r from its group and all indexes and returns it.
func (w *WarpScheduler) dispatch(r *memreq.Request) *memreq.Request {
	key, _ := groupKey(r)
	g := w.lookup(key)
	for i, p := range g.pending {
		if p == r {
			g.pending = append(g.pending[:i], g.pending[i+1:]...)
			break
		}
	}
	g.dispatched++
	w.count--
	w.bankPending[r.Bank]--
	// Drop r from its bank's filler list eagerly, clearing the vacated
	// tail: the request's memory is recycled once it completes, and a
	// stale pointer left behind would then name an unrelated live request.
	list := w.fillers[r.Bank]
	for i, p := range list {
		if p == r {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			w.fillers[r.Bank] = list[:len(list)-1]
			break
		}
	}
	if len(g.pending) == 0 && g.complete {
		w.retire(g)
	}
	return r
}

// retire removes a finished group from the sorter and parks the entry for
// reuse. current must be cleared here: before recycling, a retired group
// held by w.current stayed "exhausted forever" and forced reselection; a
// recycled pointer could instead come back to life as a different group
// and be continued without selection.
func (w *WarpScheduler) retire(g *group) {
	if w.current == g {
		w.current = nil
	}
	for p := w.chain(g.id); ; p = &(*p).next {
		if *p == g {
			*p, g.next = g.next, nil
			break
		}
	}
	w.groupFree = append(w.groupFree, g)
	for i, e := range w.order {
		if e == g {
			w.order = append(w.order[:i], w.order[i+1:]...)
			return
		}
	}
}

// OnDrainStart implements memctrl.DrainObserver: the Fig 12 accounting of
// warp-groups stalled behind a write drain.
func (w *WarpScheduler) OnDrainStart(now int64) {
	for _, g := range w.order {
		if len(g.pending) == 0 || !g.complete {
			continue
		}
		w.Stats.DrainStalledGroups++
		unit := g.dispatched == 0 && len(g.pending) == 1
		orphan := g.dispatched > 0 && len(g.pending) <= 2
		if unit || orphan {
			w.Stats.DrainStalledUnitOrOrphan++
		}
	}
}

// Interface conformance checks.
var (
	_ memctrl.Scheduler     = (*WarpScheduler)(nil)
	_ memctrl.DrainObserver = (*WarpScheduler)(nil)
)
