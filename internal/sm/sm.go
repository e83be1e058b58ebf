// Package sm models the SIMT cores (Streaming Multiprocessors) of Section
// II-A: each SM runs up to 32 warps of 32 threads in lockstep with a
// greedy-then-oldest warp scheduler, coalesces each warp load/store into
// 128B line requests, probes its private L1, and blocks a warp until the
// last response of its load returns — the SIMT property that makes DRAM
// latency divergence hurt.
//
// Scheduling state is data-oriented: the per-warp flags and timestamps the
// pickWarp scan reads every cycle live in flat parallel slices and packed
// bitmask words on the SM (see the "Data-oriented core" section of
// DESIGN.md), not on *Warp. The Warp struct keeps only the cold per-warp
// state (program, pending-response bookkeeping, counters).
package sm

import (
	"math/bits"

	"dramlat/internal/addrmap"
	"dramlat/internal/cache"
	"dramlat/internal/coalesce"
	"dramlat/internal/memreq"
	"dramlat/internal/stats"
	"dramlat/internal/telemetry"
)

// InsnKind enumerates warp instruction kinds.
type InsnKind uint8

const (
	// Compute is any non-memory warp instruction (1 issue slot).
	Compute InsnKind = iota
	// Load is a warp gather: per-lane addresses, blocking.
	Load
	// Store is a warp scatter: per-lane addresses, fire-and-forget.
	Store
)

// Insn is one warp-wide instruction. Addrs holds the active lanes'
// byte addresses for Load/Store (nil for Compute).
type Insn struct {
	Kind  InsnKind
	Addrs []uint64
}

// Program is a warp's instruction sequence.
type Program []Insn

// Warp is one warp's cold execution state. The scheduler-scanned hot
// state (pc, readyAt, done/blocked) lives in flat slices on the owning
// SM, indexed by ID; the accessors below read it through the back
// pointer.
type Warp struct {
	ID   int
	Prog Program

	sm         *SM
	curLoad    uint32
	loadSerial uint32
	pending    map[uint32]int // outstanding responses per load serial
	DoneTick   int64
	Issued     int64
}

// waiter records an L1 MSHR subscriber: a (warp, load) pair to credit when
// the line fills.
type waiter struct {
	w    *Warp
	load uint32
	gid  memreq.GroupID
}

// Config wires an SM into the system.
type Config struct {
	ID       int
	Mapper   *addrmap.Mapper
	L1       cache.Config
	L1Lat    int64 // L1 hit latency in ticks
	WarpSize int

	// LRR selects loose round-robin warp scheduling instead of the
	// default greedy-then-oldest (GTO). GTO runs one warp until it
	// stalls, concentrating each warp's loads in time; LRR spreads every
	// warp's progress, putting more concurrent warp-groups in flight.
	LRR bool

	// ZeroDivergence unblocks a warp on the first response of its load
	// (the Fig 4 "Zero Latency Divergence" ideal).
	ZeroDivergence bool
	// PerfectCoalescing truncates every load/store to one line (the
	// Fig 4 "Perfect Coalescing" ideal).
	PerfectCoalescing bool

	// Inject offers a request to the crossbar; false means retry.
	Inject func(r *memreq.Request, now int64) bool
	// NextID allocates globally unique request IDs.
	NextID func() uint64
	// Pool recycles requests. A gpu.System hands every SM and partition
	// the same pool, so requests absorbed downstream (stores, credits)
	// come back to the coalescer; nil gives the SM a private one.
	Pool *memreq.Pool

	Collector *stats.Collector

	// Probe receives warp-load issue/unblock trace events; nil disables
	// tracing at the cost of one branch per event site.
	Probe *telemetry.Tracer
}

// SM is one SIMT core.
type SM struct {
	cfg   Config
	warps []*Warp
	l1    *cache.Cache

	// Hot per-warp scheduling state, struct-of-arrays: pickWarp's LRR and
	// greedy-then-oldest scans are linear passes over these words and
	// slices with no pointer dereferences. Invariants:
	//
	//	liveM  == ^doneM & ^blockedM      (the live-unblocked index)
	//	memNextM bit w set  <=>  pc[w] < len(Prog) && Prog[pc[w]] is Load/Store
	//
	// A warp can be done AND blocked at once (its last instruction was a
	// blocking load): done is set at issue time, the unblock credit still
	// arrives later. unblock() therefore re-inserts into liveM only when
	// the done bit is clear.
	pc       []int32
	readyAt  []int64
	doneM    []uint64
	blockedM []uint64
	liveM    []uint64
	memNextM []uint64

	// replay is the in-order request/credit injection queue, head-indexed
	// so steady-state pops never re-slice away capacity.
	replay []*memreq.Request
	rHead  int

	waiters map[uint64][]waiter
	// wsFree recycles drained waiter slices so line-merge bookkeeping
	// stops allocating once the working set is warm.
	wsFree [][]waiter

	// pool recycles request allocations (Config.Pool): responses this SM
	// has fully absorbed (Deliver) and replay-queue requests filtered by
	// the L1 (dropOrCredit) feed the coalescer's next fan-out.
	pool *memreq.Pool
	// scratch, missBuf, lineBuf and chanIdx are issueLoad's reusable
	// per-call buffers (chanIdx is indexed by channel and tracks the last
	// request per channel, replacing a per-load map).
	scratch []*memreq.Request
	missBuf []uint64
	lineBuf []uint64
	chanIdx []int

	greedy int
	active int
	// frozen gates the issue stage for the sampled engine's drain
	// phase (see SetFrozen in fastforward.go): responses and replay
	// still drain, nothing new issues.
	frozen bool
	// issuedLast records whether the last Tick issued an instruction: an
	// O(1) "probably busy next tick too" signal that lets NextWakeup skip
	// the warp scan on active streaks (spuriously early at streak end,
	// which the contract allows).
	issuedLast bool
	// nextReady is the min readyAt over live unblocked warps, computed as
	// a byproduct of the last failed pickWarp scan, so NextWakeup costs
	// O(1) instead of re-scanning the warps the pick already examined.
	// Only meaningful right after a Tick that issued nothing.
	nextReady int64

	InstrIssued int64
	// IdleTicks counts cycles where the SM had warps outstanding but
	// none ready to issue — the "all warps stalled on memory" condition
	// of Section III-A that multithreading fails to hide.
	IdleTicks   int64
	ActiveTicks int64
	// IdleMemTicks / IdleLSUTicks break IdleTicks down by cause: all
	// live warps blocked on memory vs the LSU replay queue backing up.
	// The remainder is compute latency.
	IdleMemTicks int64
	IdleLSUTicks int64
	L1           *cache.Cache // exported for stats
	DoneTick     int64
}

// bitSet/bitClear/bitTest operate on the packed per-warp flag words.
func bitSet(m []uint64, i int)       { m[i>>6] |= 1 << (uint(i) & 63) }
func bitClear(m []uint64, i int)     { m[i>>6] &^= 1 << (uint(i) & 63) }
func bitTest(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// nextBit returns the index of the first set bit >= from, or -1.
func nextBit(m []uint64, from int) int {
	w := from >> 6
	if w >= len(m) {
		return -1
	}
	word := m[w] & (^uint64(0) << (uint(from) & 63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(m) {
			return -1
		}
		word = m[w]
	}
}

// New builds an SM running the given per-warp programs.
func New(cfg Config, programs []Program) *SM {
	n := len(programs)
	words := (n + 63) / 64
	s := &SM{
		cfg:      cfg,
		l1:       cache.New(cfg.L1),
		waiters:  make(map[uint64][]waiter),
		pc:       make([]int32, n),
		readyAt:  make([]int64, n),
		doneM:    make([]uint64, words),
		blockedM: make([]uint64, words),
		liveM:    make([]uint64, words),
		memNextM: make([]uint64, words),
		pool:     cfg.Pool,
	}
	if s.pool == nil {
		s.pool = new(memreq.Pool)
	}
	s.L1 = s.l1
	if cfg.Mapper != nil {
		s.chanIdx = make([]int, cfg.Mapper.Channels)
	}
	for i, p := range programs {
		w := &Warp{ID: i, Prog: p, pending: make(map[uint32]int), sm: s}
		if len(p) == 0 {
			bitSet(s.doneM, i)
		} else {
			s.active++
			bitSet(s.liveM, i)
			if p[0].Kind != Compute {
				bitSet(s.memNextM, i)
			}
		}
		s.warps = append(s.warps, w)
	}
	return s
}

// Done reports whether every warp has retired.
func (s *SM) Done() bool { return s.active == 0 }

// ReplayLen reports the LSU replay-queue occupancy (diagnostics).
func (s *SM) ReplayLen() int { return len(s.replay) - s.rHead }

// Warps exposes warp states (read-only use).
func (s *SM) Warps() []*Warp { return s.warps }

// Done reports whether the warp has retired.
func (w *Warp) Done() bool { return bitTest(w.sm.doneM, w.ID) }

// Blocked reports whether the warp is blocked on an outstanding load.
func (w *Warp) Blocked() bool { return bitTest(w.sm.blockedM, w.ID) }

// gid builds the group identity for a warp's load.
func (s *SM) gid(w *Warp, load uint32) memreq.GroupID {
	return memreq.GroupID{SM: uint16(s.cfg.ID), Warp: uint16(w.ID), Load: load}
}

// Deliver hands a returning response (an L2 hit or a DRAM fill for a
// request this SM sent) to the core. It fills the L1 and credits every
// waiter merged on the line.
func (s *SM) Deliver(r *memreq.Request, now int64) {
	s.l1.Fill(r.Addr, false)
	s.l1.MSHRRelease(r.Addr)
	ws, ok := s.waiters[r.Addr]
	if ok {
		delete(s.waiters, r.Addr)
	}
	for _, wt := range ws {
		s.credit(wt, now)
	}
	if ok {
		s.wsFree = append(s.wsFree, ws[:0])
	}
	s.pool.Put(r) // response fully absorbed; nothing references it now
}

// addWaiter subscribes a (warp, load) pair to a line fill, reusing a
// drained waiter slice when one is free.
func (s *SM) addWaiter(addr uint64, wt waiter) {
	ws, ok := s.waiters[addr]
	if !ok {
		if n := len(s.wsFree); n > 0 {
			ws = s.wsFree[n-1]
			s.wsFree = s.wsFree[:n-1]
		}
	}
	s.waiters[addr] = append(ws, wt)
}

// credit delivers one line response to a (warp, load) subscriber.
func (s *SM) credit(wt waiter, now int64) {
	if s.cfg.Collector != nil {
		s.cfg.Collector.OnResp(wt.gid, now)
	}
	w := wt.w
	left := w.pending[wt.load] - 1
	if left <= 0 {
		delete(w.pending, wt.load)
	} else {
		w.pending[wt.load] = left
	}
	if !bitTest(s.blockedM, w.ID) || wt.load != w.curLoad {
		return
	}
	if s.cfg.ZeroDivergence {
		// The ideal model of Fig 4: the warp resumes as soon as its
		// first datum returns; the remaining requests still occupy
		// DRAM bandwidth.
		s.unblock(w.ID, now, wt.gid)
		return
	}
	if left <= 0 {
		s.unblock(w.ID, now, wt.gid)
	}
}

// unblock clears a warp's blocked bit and re-inserts it into the
// live-unblocked index — unless it retired at issue time (its last
// instruction was the blocking load), in which case it must never
// reappear in the scheduler scan.
func (s *SM) unblock(wi int, now int64, gid memreq.GroupID) {
	bitClear(s.blockedM, wi)
	if !bitTest(s.doneM, wi) {
		bitSet(s.liveM, wi)
	}
	s.readyAt[wi] = now + 1
	if s.cfg.Probe != nil {
		s.cfg.Probe.LoadUnblock(now, gid)
	}
}

// idle counts k idle cycles of an SM with warps outstanding and
// attributes them to their cause, for the interval sampler's stall
// breakdown. Memory wins over LSU back-pressure: if any live warp is
// blocked on a load, multithreading has run out of warps to hide that
// latency with (Section III-A), which is the condition the paper's
// schedulers attack.
func (s *SM) idle(k int64) {
	if s.active == 0 {
		return
	}
	s.IdleTicks += k
	for i, b := range s.blockedM {
		if b&^s.doneM[i] != 0 {
			s.IdleMemTicks += k
			return
		}
	}
	if s.ReplayLen() > 0 {
		s.IdleLSUTicks += k
	}
}

// never is the wakeup-contract sentinel (see dram.Never).
const never int64 = 1 << 62

// Tick advances the SM one cycle: absorb one response (resp, popped from
// the crossbar by the caller; nil when none is ready), drain the replay
// queue head, and issue one instruction (greedy-then-oldest).
func (s *SM) Tick(now int64, resp *memreq.Request) {
	if resp != nil {
		s.Deliver(resp, now)
	}
	s.drainReplay(now)
	s.issue(now)
}

// NextWakeup returns the earliest tick strictly after now at which Tick
// could do anything beyond counting an idle cycle, assuming no crossbar
// input arrives first. Crossbar input is a response or a freed slot in
// one of this SM's full request FIFOs; the crossbar's RespWake covers
// both. An unblocked warp issues at its readyAt (or next tick, when
// several are ready and queue behind the one-issue-per-tick limit).
// A replay queue left non-empty by Tick has a blocked head: either its
// crossbar FIFO is full, which only a freed slot releases, or the L1
// MSHRs are exhausted, which only a response (Deliver) releases. So it
// adds no wakeup of its own. never means the SM is quiescent until
// external input. Call it right after Tick(now): it reads the
// nextReady bound that Tick's warp scan left behind.
func (s *SM) NextWakeup(now int64) int64 {
	if s.frozen {
		// Drain phase: tick every cycle until quiescent (the replay
		// queue retries and responses may land any tick), then sleep.
		if s.Quiescent() {
			return never
		}
		return now + 1
	}
	if s.issuedLast {
		return now + 1
	}
	if s.nextReady <= now {
		return now + 1
	}
	return s.nextReady
}

// CatchUp accounts k ticks the event-driven loop skipped for this SM.
// A skippable tick is exactly a dense tick that would only have counted
// an idle cycle: no crossbar input, a replay queue that is empty or
// whose head is blocked, and no live unblocked warp ready before the
// wakeup — so warp and replay state are provably unchanged across the
// window and only the idle counters need batching. The blocked set and
// the replay queue cannot change inside the window, so the stall cause
// a dense idle tick would record holds for all k ticks.
func (s *SM) CatchUp(k int64) {
	if k > 0 {
		s.idle(k)
	}
}

// drainReplay injects the head of the in-order request queue, re-checking
// the L1 and its MSHRs at injection time (a line may have been filled or
// requested by another warp while queued).
func (s *SM) drainReplay(now int64) {
	for s.rHead < len(s.replay) {
		r := s.replay[s.rHead]
		if r.CreditOnly {
			if !s.cfg.Inject(r, now) {
				return
			}
			s.popReplay()
			continue
		}
		wt := waiter{w: s.warps[r.Group.Warp], load: r.Group.Load, gid: r.Group}
		if r.Kind == memreq.Read {
			if s.l1.Contains(r.Addr) {
				// Filled while queued: satisfied locally.
				s.credit(wt, now)
				s.dropOrCredit(r)
				continue
			}
			if m := s.l1.MSHRFor(r.Addr); m != nil {
				// Another warp already fetched this line: merge.
				s.addWaiter(r.Addr, wt)
				s.dropOrCredit(r)
				continue
			}
			if s.l1.MSHRAlloc(r.Addr) == nil {
				return // MSHRs exhausted; stall the queue
			}
			if !s.cfg.Inject(r, now) {
				// Crossbar full: undo the MSHR and retry.
				s.l1.MSHRRelease(r.Addr)
				return
			}
			s.addWaiter(r.Addr, wt)
			s.popReplay()
			continue
		}
		// Store write-through: no waiter, no response.
		if !s.cfg.Inject(r, now) {
			return
		}
		s.popReplay()
	}
}

// popReplay advances the head index; a fully drained queue resets to
// reuse its capacity from the front.
func (s *SM) popReplay() {
	s.replay[s.rHead] = nil
	s.rHead++
	if s.rHead == len(s.replay) {
		s.replay = s.replay[:0]
		s.rHead = 0
	}
}

// dropOrCredit removes the head request; if it carried the group's
// channel tag, a zero-cost credit marker takes its queue slot so the
// memory controller still learns the group is fully transferred.
func (s *SM) dropOrCredit(r *memreq.Request) {
	if r.LastInChannel {
		c := s.pool.Get()
		c.ID, c.Kind, c.Addr = s.cfg.NextID(), memreq.Read, r.Addr
		c.Group, c.CreditOnly = r.Group, true
		c.Channel, c.Bank, c.Row, c.Col = r.Channel, r.Bank, r.Row, r.Col
		s.replay[s.rHead] = c
		s.pool.Put(r)
		return
	}
	s.popReplay()
	s.pool.Put(r)
}

// issue picks a warp greedy-then-oldest and issues its next instruction.
func (s *SM) issue(now int64) {
	if s.frozen {
		s.issuedLast = false
		s.idle(1)
		return
	}
	wi := s.pickWarp(now)
	s.issuedLast = wi >= 0
	if wi < 0 {
		s.idle(1)
		return
	}
	s.ActiveTicks++
	w := s.warps[wi]
	pc := int(s.pc[wi])
	insn := w.Prog[pc]
	pc++
	s.pc[wi] = int32(pc)
	w.Issued++
	s.InstrIssued++
	if pc < len(w.Prog) && w.Prog[pc].Kind != Compute {
		bitSet(s.memNextM, wi)
	} else {
		bitClear(s.memNextM, wi)
	}
	switch insn.Kind {
	case Compute:
		s.readyAt[wi] = now + 1
	case Load:
		s.issueLoad(w, insn, now)
	case Store:
		s.issueStore(w, insn, now)
	}
	if pc >= len(w.Prog) && !bitTest(s.doneM, wi) {
		bitSet(s.doneM, wi)
		bitClear(s.liveM, wi)
		w.DoneTick = now
		s.active--
		if s.active == 0 {
			s.DoneTick = now
		}
	}
}

// pickWarp selects the next warp to issue, returning its index or -1.
// Both policies walk the packed live-unblocked index (liveM), so done or
// blocked warps cost nothing — a failed scan touches only the flat
// readyAt/memNextM state of warps that could actually run. The scan
// semantics are pinned against the pre-SoA reference scan in
// pickref_test.go by TestPickWarpMatchesReference.
func (s *SM) pickWarp(now int64) int {
	// A failed scan has examined every live unblocked warp, so it records
	// the min readyAt for NextWakeup on the way (the greedy pre-check may
	// feed the same warp twice; min is idempotent).
	nextReady := never
	replayBusy := s.rHead < len(s.replay)
	// try reports whether live warp wi can issue at now. Memory
	// instructions wait for the LSU queue to drain so that per-channel
	// request order matches the tagging order.
	try := func(wi int) bool {
		if r := s.readyAt[wi]; r > now {
			if r < nextReady {
				nextReady = r
			}
			return false
		}
		return !(replayBusy && bitTest(s.memNextM, wi))
	}
	if s.cfg.LRR {
		// Loose round-robin: rotate past the last issuer.
		n := len(s.warps)
		start := s.greedy + 1
		if start >= n {
			start = 0
		}
		for wi := nextBit(s.liveM, start); wi >= 0; wi = nextBit(s.liveM, wi+1) {
			if try(wi) {
				s.greedy = wi
				return wi
			}
		}
		for wi := nextBit(s.liveM, 0); wi >= 0 && wi < start; wi = nextBit(s.liveM, wi+1) {
			if try(wi) {
				s.greedy = wi
				return wi
			}
		}
		s.nextReady = nextReady
		return -1
	}
	// Greedy-then-oldest.
	if g := s.greedy; bitTest(s.liveM, g) && try(g) {
		return g
	}
	for wi := nextBit(s.liveM, 0); wi >= 0; wi = nextBit(s.liveM, wi+1) {
		if try(wi) {
			s.greedy = wi
			return wi
		}
	}
	s.nextReady = nextReady
	return -1
}

func (s *SM) issueLoad(w *Warp, insn Insn, now int64) {
	lines := coalesce.LinesInto(s.lineBuf, insn.Addrs)
	s.lineBuf = lines
	if s.cfg.PerfectCoalescing && len(lines) > 1 {
		lines = lines[:1]
	}
	w.loadSerial++
	load := w.loadSerial
	gid := s.gid(w, load)

	// L1 probe: resident lines are satisfied at L1 latency.
	missing := s.missBuf[:0]
	for _, line := range lines {
		if s.l1.Lookup(line) {
			continue
		}
		missing = append(missing, line)
	}
	s.missBuf = missing
	if s.cfg.Collector != nil {
		s.cfg.Collector.OnLoadIssue(gid, now, len(lines), len(missing))
	}
	if len(missing) == 0 {
		s.readyAt[w.ID] = now + s.cfg.L1Lat
		return
	}
	if s.cfg.Probe != nil {
		// Only loads that enter the memory system are traced, so every
		// issue gets a matching unblock in a drained run.
		s.cfg.Probe.LoadIssue(now, gid, len(lines), len(missing))
	}
	w.pending[load] = len(missing)
	w.curLoad = load
	bitSet(s.blockedM, w.ID)
	bitClear(s.liveM, w.ID)

	// Build all requests up front so the last request per channel can be
	// tagged; enqueue in order on the LSU replay queue. chanIdx (indexed
	// by channel, reset per load) replaces a per-load map allocation.
	reqs := s.scratch[:0]
	for i := range s.chanIdx {
		s.chanIdx[i] = -1
	}
	channels := 0
	for i, line := range missing {
		c := s.cfg.Mapper.Decode(line)
		r := s.pool.Get()
		r.ID, r.Kind, r.Addr = s.cfg.NextID(), memreq.Read, line
		r.Group, r.Issue = gid, now
		r.Channel, r.Bank, r.Row, r.Col = c.Channel, c.Bank, c.Row, c.Col
		reqs = append(reqs, r)
		if s.chanIdx[c.Channel] < 0 {
			channels++
		}
		s.chanIdx[c.Channel] = i
	}
	for _, i := range s.chanIdx {
		if i >= 0 {
			reqs[i].LastInChannel = true
		}
	}
	for _, r := range reqs {
		r.GroupChannels = uint8(channels)
	}
	if s.cfg.ZeroDivergence {
		// Fig 4 ideal: every request after the first is a pure bus
		// transfer (bank conflicts abstracted away).
		for _, r := range reqs[1:] {
			r.BusOnly = true
		}
	}
	s.replay = append(s.replay, reqs...)
	s.scratch = reqs[:0]
	s.drainReplay(now)
}

func (s *SM) issueStore(w *Warp, insn Insn, now int64) {
	lines := coalesce.LinesInto(s.lineBuf, insn.Addrs)
	s.lineBuf = lines
	if s.cfg.PerfectCoalescing && len(lines) > 1 {
		lines = lines[:1]
	}
	if s.cfg.Collector != nil {
		s.cfg.Collector.OnStoreIssue(len(lines))
	}
	for _, line := range lines {
		// Write-through, no-allocate: keep L1 coherent by dropping any
		// stale copy, then send the write to the L2.
		s.l1.Invalidate(line)
		c := s.cfg.Mapper.Decode(line)
		r := s.pool.Get()
		r.ID, r.Kind, r.Addr = s.cfg.NextID(), memreq.Write, line
		r.Issue = now
		// Stores carry the SM in the group for response routing
		// (unused) but no load serial: they are ungrouped.
		r.Group = memreq.GroupID{SM: uint16(s.cfg.ID)}
		r.Channel, r.Bank, r.Row, r.Col = c.Channel, c.Bank, c.Row, c.Col
		s.replay = append(s.replay, r)
	}
	s.readyAt[w.ID] = now + 1
	s.drainReplay(now)
}
