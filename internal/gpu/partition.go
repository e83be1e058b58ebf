package gpu

import (
	"dramlat/internal/addrmap"
	"dramlat/internal/cache"
	"dramlat/internal/core"
	"dramlat/internal/dram"
	"dramlat/internal/memctrl"
	"dramlat/internal/memreq"
	"dramlat/internal/stats"
	"dramlat/internal/telemetry"
	"dramlat/internal/xbar"
)

// pipeEntry is one request inside the L2 slice's lookup pipeline.
type pipeEntry struct {
	req     *memreq.Request
	readyAt int64
}

// partition is one memory partition: an L2 slice in front of one GDDR5
// channel and its memory controller (Section II-B).
type partition struct {
	id  int
	l2  *cache.Cache
	ctl *memctrl.Controller
	ws  *core.WarpScheduler // non-nil for the wg* schedulers
	x   *xbar.Xbar
	col *stats.Collector

	// pipe and evictQ are head-indexed FIFOs: pops advance the head
	// instead of re-slicing capacity away, and the backing arrays reset
	// once empty, so the steady state never re-allocates.
	pipe      []pipeEntry
	pipeHead  int
	pipeCap   int
	evictQ    []*memreq.Request // dirty write-backs awaiting the write queue
	evictHead int

	// pool is the System-wide request pool: absorbed stores and credits
	// go back to it for the SMs' next loads, and dirty-eviction
	// write-backs come from it.
	pool *memreq.Pool

	mapper    *addrmap.Mapper
	mshrCap   int
	l2Lat     int64
	nextID    func() uint64
	noCredits bool               // ablation: drop group-complete credits
	probe     *telemetry.Tracer  // nil disables event tracing
	tsamp     *telemetry.Sampler // nil disables interval sampling
}

func (p *partition) onReadDone(r *memreq.Request, now int64) {
	// Fill the L2 and emit any displaced dirty victim as a DRAM write.
	if v, dirty, evicted := p.l2.Fill(r.Addr, false); evicted && dirty {
		p.pushEvict(v, now)
	}
	m := p.l2.MSHRRelease(r.Addr)
	if p.col != nil {
		p.col.OnDRAMDone(r.Group, now)
	}
	if p.probe != nil {
		p.probe.Done(now, p.id, r.Group, r.ID)
	}
	p.x.Respond(p.id, r, now)
	if m != nil {
		for _, mr := range m.Waiters {
			if p.col != nil {
				p.col.OnDRAMDone(mr.Group, now)
			}
			if p.probe != nil {
				p.probe.Done(now, p.id, mr.Group, r.ID)
			}
			p.x.Respond(p.id, mr, now)
		}
	}
}

func (p *partition) pushEvict(victim uint64, now int64) {
	w := p.pool.Get()
	w.ID, w.Kind, w.Addr = p.nextID(), memreq.Write, victim
	w.Issue, w.Channel = now, p.id
	// Victim addresses come from this partition, so they decode back to
	// this channel; only bank/row/col are needed.
	c := p.mapper.Decode(victim)
	w.Bank, w.Row, w.Col = c.Bank, c.Row, c.Col
	p.evictQ = append(p.evictQ, w)
}

// onWriteDone recycles a drained write-back; only pushEvict-created
// writes reach the DRAM write path (SM stores are absorbed by the L2).
func (p *partition) onWriteDone(r *memreq.Request, now int64) {
	p.pool.Put(r)
}

// process handles the head of the L2 pipeline. It returns false when the
// head must stall (MSHR or read-queue pressure downstream).
func (p *partition) process(r *memreq.Request, now int64) bool {
	if r.CreditOnly {
		if !p.noCredits {
			p.ctl.GroupComplete(r.Group, now)
		}
		p.pool.Put(r) // credit absorbed; it never reaches DRAM
		return true
	}
	if r.Kind == memreq.Write {
		if len(p.evictQ)-p.evictHead >= 16 {
			return false // eviction buffer full: stall the pipe
		}
		if v, dirty, evicted := p.l2.Fill(r.Addr, true); evicted && dirty {
			p.pushEvict(v, now)
		}
		p.pool.Put(r) // store absorbed by the L2
		return true
	}
	// Read.
	if p.l2.Lookup(r.Addr) {
		if r.LastInChannel && !p.noCredits {
			p.ctl.GroupComplete(r.Group, now)
		}
		p.x.Respond(p.id, r, now)
		return true
	}
	if m := p.l2.MSHRFor(r.Addr); m != nil {
		m.Waiters = append(m.Waiters, r)
		if m.Owner != r.Group {
			// Another warp now waits on the owner group's line: the
			// shared-data extension raises the owner's priority.
			p.ctl.SharedDemand(m.Owner, now)
		}
		if r.LastInChannel && !p.noCredits {
			p.ctl.GroupComplete(r.Group, now)
		}
		return true
	}
	// True miss: needs an MSHR and a read-queue slot together.
	if p.l2.MSHRCount() >= p.mshrCap {
		return false
	}
	if !p.ctl.AcceptRead(r, now) {
		return false
	}
	m := p.l2.MSHRAlloc(r.Addr)
	m.Owner = r.Group
	if p.col != nil {
		p.col.OnMCArrive(r.Group, p.id)
	}
	return true
}

// Tick advances the partition one cycle.
func (p *partition) Tick(now int64) {
	// Retry buffered dirty evictions first: they must not be lost.
	for p.evictHead < len(p.evictQ) {
		if !p.ctl.AcceptWrite(p.evictQ[p.evictHead], now) {
			break
		}
		p.evictQ[p.evictHead] = nil
		p.evictHead++
	}
	if p.evictHead == len(p.evictQ) {
		p.evictQ = p.evictQ[:0]
		p.evictHead = 0
	}
	// L2 pipeline: one request per tick.
	if p.pipeHead < len(p.pipe) && p.pipe[p.pipeHead].readyAt <= now {
		if p.process(p.pipe[p.pipeHead].req, now) {
			p.pipe[p.pipeHead] = pipeEntry{}
			p.pipeHead++
			if p.pipeHead == len(p.pipe) {
				p.pipe = p.pipe[:0]
				p.pipeHead = 0
			}
		}
	}
	// Pull new work from the crossbar.
	if len(p.pipe)-p.pipeHead < p.pipeCap {
		if req := p.x.PopPart(p.id, now); req != nil {
			p.pipe = append(p.pipe, pipeEntry{req, now + p.l2Lat})
		}
	}
	if p.ws != nil {
		p.ws.PollCoordination(now)
	}
	if cmd := p.ctl.Tick(now); cmd != nil && p.probe != nil {
		p.emitCommand(cmd, now)
	}
}

// emitCommand translates one issued DRAM command into a trace event.
func (p *partition) emitCommand(cmd *dram.Command, now int64) {
	var kind telemetry.Kind
	row := cmd.Row
	switch cmd.Type {
	case dram.CmdACT:
		kind = telemetry.EvACT
	case dram.CmdPRE:
		kind, row = telemetry.EvPRE, -1
	case dram.CmdRD:
		kind = telemetry.EvRD
	case dram.CmdWR:
		kind = telemetry.EvWR
	default:
		return
	}
	var r *memreq.Request
	if cmd.Txn != nil {
		r = cmd.Txn.Req
	}
	p.probe.Command(now, kind, p.id, cmd.Bank, row, r)
}

// sample appends one ChannelSample snapshot; gpu.Run owns the cadence.
func (p *partition) sample(now int64) {
	queued := 0
	for b := 0; b < p.ctl.Chan.NumBanks; b++ {
		queued += p.ctl.Chan.QueuedTxns(b)
	}
	cs := p.ctl.Chan.Stats
	p.tsamp.Channels = append(p.tsamp.Channels, telemetry.ChannelSample{
		Tick:    now,
		Channel: p.id,

		ReadQ:      p.ctl.ReadOccupancy(),
		WriteQ:     p.ctl.WriteOccupancy(),
		Draining:   p.ctl.Draining(),
		QueuedTxns: queued,

		ACTs: cs.ACTs, PREs: cs.PREs,
		RDBursts: cs.RDBursts, WRBursts: cs.WRBursts,
		HitTxns: cs.HitTxns, MissTxns: cs.MissTxns,
		BusyTicks:     cs.BusyTicks,
		DrainsStarted: p.ctl.Stats.DrainsStarted,
	})
}

// drained reports whether the partition holds no in-flight work.
func (p *partition) drained() bool {
	return len(p.pipe)-p.pipeHead == 0 && len(p.evictQ)-p.evictHead == 0 && p.ctl.Idle()
}
