package gpu

import (
	"fmt"

	"dramlat/internal/addrmap"
	"dramlat/internal/cache"
	"dramlat/internal/coordnet"
	"dramlat/internal/core"
	"dramlat/internal/dram"
	"dramlat/internal/guard"
	"dramlat/internal/guard/chaos"
	"dramlat/internal/memctrl"
	"dramlat/internal/memreq"
	"dramlat/internal/sm"
	"dramlat/internal/stats"
	"dramlat/internal/telemetry"
	"dramlat/internal/xbar"
)

// Workload is the per-SM, per-warp instruction streams fed to the GPU.
type Workload struct {
	Name     string
	Programs [][]sm.Program // [sm][warp]
}

// Results digests one simulation run.
type Results struct {
	Scheduler string
	Workload  string

	Ticks       int64 // tick at which the last warp retired
	Instr       int64
	IPC         float64
	Drained     bool
	Summary     stats.Summary
	DRAM        dram.Stats // aggregated over channels
	Utilization float64    // DRAM data-bus utilization up to Ticks
	RowHitRate  float64
	L2HitRate   float64
	L1HitRate   float64

	// Divergence-gap distribution percentiles (ticks).
	GapP50, GapP90, GapP99 float64

	// SMIdleFrac is the fraction of core cycles where an SM had live
	// warps but none ready — memory stalls multithreading could not hide
	// (Section III-A).
	SMIdleFrac float64

	DrainsStarted int64
	WriteFrac     float64 // write bursts / all bursts (Fig 12)
	// Fig 12: warp-groups pending at drain start, and the unit/orphan
	// subset (wg schedulers only).
	DrainStalledGroups       int64
	DrainStalledUnitOrOrphan int64
	CoordMessages            int64
	CoordApplied             int64
	CoordSoleBlocker         int64
	GroupsSelected           int64
	MERBFillers              int64
	UnitRush                 int64

	// Approximate marks results produced by the sampled engine: every
	// aggregate above is a statistical estimate, valid within the error
	// bars in Sampling, never byte-comparable to an exact engine's
	// output. Exact engines leave it false and Sampling nil.
	Approximate bool `json:",omitempty"`
	Sampling    *SamplingStats
}

// SamplingStats is the sampled engine's self-report: how much of the
// run was simulated in full detail vs advanced by the statistical
// model, and 95% confidence half-widths for the headline metrics
// derived from window-to-window variation. A run short enough to fit
// in one window reports zero half-widths (no variance to estimate) —
// and also ran essentially exactly.
type SamplingStats struct {
	Windows       int   // completed measurement windows
	DetailedTicks int64 // cycles simulated in full fidelity (windows + drains + warm-ups)
	ModeledTicks  int64 // cycles advanced by the statistical model
	// 95% CI half-widths (same units as the point estimates).
	IPCErr    float64
	GapP50Err float64
	GapP90Err float64
	GapP99Err float64
}

// System is one assembled GPU simulation.
type System struct {
	Cfg    Config
	Mapper *addrmap.Mapper
	Col    *stats.Collector
	// Tel holds the run's telemetry subsystems; nil when Cfg.Telemetry is
	// the zero value.
	Tel *telemetry.Telemetry

	sms   []*sm.SM
	parts []*partition
	name  string
	x     *xbar.Xbar
	net   *coordnet.Network

	atlas *memctrl.ATLASState

	// pool is the one request freelist every SM and partition shares:
	// requests die where the SMs never see them (stores and credits
	// absorbed by an L2 slice), so per-component pools would leak them
	// into a pool that only evictions draw from.
	pool memreq.Pool

	// Engine holds per-run engine counters (visit/skip rates). They are
	// deliberately NOT part of Results: they record how much work the
	// stepper skipped, which must never change Results.
	Engine EngineStats

	now int64
}

// EngineStats counts the work the simulation engine actually performed.
// VisitedTicks is the number of ticks the stepper executed (the sampled
// engine's modeled regions are not stepped); SMTicks and PartTicks count
// component-tick executions, so their ratio to VisitedTicks is the
// component-skipping win. scripts/bench reports them per workload.
type EngineStats struct {
	VisitedTicks int64
	SMTicks      int64
	PartTicks    int64
}

// NewSystem assembles a GPU for the given config and workload.
func NewSystem(cfg Config, w Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(w.Programs) != cfg.NumSMs {
		return nil, fmt.Errorf("gpu: workload has %d SMs, config %d", len(w.Programs), cfg.NumSMs)
	}
	s := &System{
		Cfg:    cfg,
		name:   w.Name,
		Mapper: addrmap.New(cfg.NumChannels, cfg.NumBanks),
		Col:    stats.NewCollector(),
		x:      xbar.New(cfg.NumSMs, cfg.NumChannels, cfg.XbarLat, cfg.XbarQueue),
		Tel:    telemetry.New(cfg.Telemetry),
	}
	var tracer *telemetry.Tracer
	var sampler *telemetry.Sampler
	if s.Tel != nil {
		tracer, sampler = s.Tel.Tracer, s.Tel.Sampler
	}
	if cfg.Scheduler == "wafcfs" {
		s.x.NoInterleave = true
	}
	switch cfg.Scheduler {
	case "wg-m", "wg-bw", "wg-w", "wg-sh":
		s.net = coordnet.New(cfg.NumChannels, cfg.CoordDelay)
	case "atlas":
		s.atlas = memctrl.NewATLASState(cfg.ATLASQuantum)
	}
	for ch := 0; ch < cfg.NumChannels; ch++ {
		channel := dram.NewChannel(cfg.Timing, cfg.NumBanks, cfg.BankGroups, cfg.CmdQueueCap)
		channel.WakeCache = true
		if cfg.EnableRefresh {
			channel.SetRefresh(cfg.RefreshTicks, cfg.TRFCTicks)
		}
		sched, ws := s.buildScheduler(ch)
		ctl := memctrl.New(channel, sched, cfg.ReadQ, cfg.WriteQ, cfg.HighWM, cfg.LowWM)
		ctl.WriteAgeDrain = cfg.WriteAgeDrain
		ctl.Probe, ctl.ChannelID = tracer, ch
		if ws != nil {
			ws.Probe = tracer
		}
		if cfg.Scheduler == "sbwas" {
			ctl.Writes = memctrl.Interleaved
		}
		p := &partition{
			id: ch,
			l2: cache.New(cache.Config{
				SizeBytes: cfg.L2SliceSize, LineBytes: cfg.LineBytes,
				Ways: cfg.L2Ways, MSHRs: cfg.L2MSHRs,
			}),
			ctl: ctl, ws: ws, x: s.x, col: s.Col, pool: &s.pool,
			pipeCap: cfg.L2PipeDepth,
			mapper:  s.Mapper, mshrCap: cfg.L2MSHRs, l2Lat: cfg.L2Lat,
			nextID:    creatorID(uint64(cfg.NumSMs + ch)),
			noCredits: cfg.Ablation == "no-credits",
			probe:     tracer,
			tsamp:     sampler,
		}
		ctl.OnReadDone = p.onReadDone
		ctl.OnWriteDone = p.onWriteDone
		s.parts = append(s.parts, p)
	}

	for id := 0; id < cfg.NumSMs; id++ {
		smCfg := sm.Config{
			ID:     id,
			Mapper: s.Mapper,
			L1: cache.Config{
				SizeBytes: cfg.L1SizeBytes, LineBytes: cfg.LineBytes,
				Ways: cfg.L1Ways, MSHRs: cfg.L1MSHRs,
			},
			L1Lat:             cfg.L1Lat,
			WarpSize:          cfg.WarpSize,
			LRR:               cfg.WarpSched == "lrr",
			ZeroDivergence:    cfg.ZeroDivergence,
			PerfectCoalescing: cfg.PerfectCoalescing,
			NextID:            creatorID(uint64(id)),
			Pool:              &s.pool,
			Collector:         s.Col,
			Probe:             tracer,
		}
		smID := id
		smCfg.Inject = func(r *memreq.Request, now int64) bool {
			return s.x.Inject(smID, r, now)
		}
		s.sms = append(s.sms, sm.New(smCfg, w.Programs[id]))
	}
	return s, nil
}

// creatorID returns an ID allocator for one creator: SM i uses stream i,
// partition ch uses stream NumSMs+ch. IDs are (stream+1)<<40 | serial,
// so streams never collide and each ID depends only on its creator's own
// allocation order, never on how an engine interleaves components.
func creatorID(creator uint64) func() uint64 {
	var serial uint64
	return func() uint64 {
		serial++
		return (creator+1)<<40 | serial
	}
}

func (s *System) buildScheduler(ch int) (memctrl.Scheduler, *core.WarpScheduler) {
	cfg := s.Cfg
	ablate := func(w *core.WarpScheduler) (memctrl.Scheduler, *core.WarpScheduler) {
		w.AgeThresh = cfg.AgeThresh
		w.CountScore = cfg.Ablation == "count-score"
		w.NoOrphanControl = cfg.Ablation == "no-orphan"
		return w, w
	}
	switch cfg.Scheduler {
	case "gmc":
		g := memctrl.NewGMC()
		g.AgeThresh = cfg.AgeThresh
		return g, nil
	case "fcfs", "wafcfs":
		return memctrl.NewFCFS(), nil
	case "frfcfs":
		return memctrl.NewFRFCFS(), nil
	case "sbwas":
		return memctrl.NewSBWAS(cfg.SBWASAlpha), nil
	case "parbs":
		return memctrl.NewPARBS(), nil
	case "atlas":
		return memctrl.NewATLAS(s.atlas), nil
	case "wg":
		return ablate(core.New())
	case "wg-m":
		return ablate(core.New(core.WithCoordination(s.net, ch)))
	case "wg-bw":
		return ablate(core.New(core.WithCoordination(s.net, ch), core.WithMERB()))
	case "wg-w":
		return ablate(core.New(core.WithCoordination(s.net, ch), core.WithMERB(), core.WithWriteAware()))
	case "wg-sh":
		return ablate(core.New(core.WithCoordination(s.net, ch), core.WithMERB(),
			core.WithWriteAware(), core.WithSharedPriority()))
	}
	panic("gpu: unknown scheduler " + cfg.Scheduler)
}

// Run executes the simulation until every warp retires, MaxTicks
// elapse, or the liveness watchdog trips. Kernel time (Results.Ticks)
// is the tick at which the last warp retired; the write-back tail left
// in the memory system is not part of it, matching the paper's IPC
// measurement.
//
// On a completed run the error is nil. A run that exhausts MaxTicks,
// makes no forward progress for Cfg.StallCycles, misses Cfg.Deadline,
// or is cancelled through Cfg.Stop returns partial Results together
// with a *guard.StallError carrying a diagnostic dump — never a hang.
// The watchdog only reads state, so completed runs remain
// byte-identical to a watchdog-free build.
//
// The default engine steps every tick but visits a component only at
// ticks where its state can change, producing results byte-identical
// to ticking every component every cycle (see DESIGN.md "Simulation
// engine" and TestEventDrivenMatchesDense). Cfg.Engine selects the
// sampled engine, which drives the same stepper between its modeled
// regions.
func (s *System) Run() (Results, error) {
	if s.Cfg.Engine == EngineSampled {
		return s.runSampled()
	}
	e := s.newStepper()
	e.stepUntil(s.Cfg.MaxTicks, false)
	return e.finish()
}

// Now reports the current simulation cycle (for panic-recovery context).
func (s *System) Now() int64 { return s.now }

// stepper is the one tick loop. It advances time one tick at a time
// and, at each tick, ticks exactly the components whose wakeup bound
// has come due, in fixed component order. Invariant: a component-tick
// is skipped only when the wakeup contracts prove that ticking it would
// be a no-op (modulo the SM idle counters, which CatchUp batches), so
// by induction over ticks the state matches a loop that ticks every
// component every cycle. The sampled engine stops and resumes the
// stepper between its phases.
type stepper struct {
	s      *System
	smWake []int64 // zero: every SM is runnable at tick 0
	smLast []int64 // last tick the SM actually ticked
	smDone []bool
	pWake  []int64
	// smBase is the exact min over smWake (SM-internal wakeups);
	// partBase the exact min over pWake and coordination-message dues.
	// Crossbar traffic is covered by the xbar's own maintained minima,
	// so deciding whether any component needs this tick is a handful of
	// compares — the per-component scans run only when their trigger
	// fires.
	smBase   int64
	partBase int64
	now      int64
	live     int

	doneTick int64
	stall    *guard.StallError
	wd       *watchdog
	f        *chaos.Faults

	// nextSample keeps the per-tick telemetry cost to one compare when
	// sampling is off (it never matches).
	nextSample int64
	lastSample int64
}

const bigTick = int64(1) << 62

func (s *System) newStepper() *stepper {
	e := &stepper{
		s:          s,
		smWake:     make([]int64, len(s.sms)),
		smLast:     make([]int64, len(s.sms)),
		smDone:     make([]bool, len(s.sms)),
		pWake:      make([]int64, len(s.parts)),
		doneTick:   -1,
		wd:         s.newWatchdog(),
		f:          s.Cfg.Faults,
		nextSample: -1,
		lastSample: -1,
	}
	if s.Tel != nil && s.Tel.Sampler != nil {
		e.nextSample = s.Tel.Sampler.Every
	}
	for i, c := range s.sms {
		e.smLast[i] = -1
		if c.Done() {
			e.smDone[i] = true
		} else {
			e.live++
		}
	}
	return e
}

// stepUntil advances the system from e.now to limit (exclusive),
// stopping early when the last warp retires, the watchdog trips, or —
// with stopQuiescent — the whole system reaches quiescence.
func (e *stepper) stepUntil(limit int64, stopQuiescent bool) {
	s := e.s
	if limit > s.Cfg.MaxTicks {
		limit = s.Cfg.MaxTicks
	}
	for ; e.now < limit && e.doneTick < 0 && e.stall == nil; e.now++ {
		now := e.now
		s.now = now
		e.f.CheckPanic(now)
		s.Engine.VisitedTicks++
		if now >= e.smBase || now >= s.x.MinRespWake() {
			e.smBase = bigTick
			for i, c := range s.sms {
				eff := e.smWake[i]
				if rw := s.x.RespWake(i); rw < eff {
					eff = rw
				}
				// A comatose component models a late NextWakeup answer:
				// its due tick passes unserved. Leaving smWake stale
				// (<= now) keeps it due every tick so the watchdog, not
				// a hang, reports it.
				if eff <= now && !e.f.Asleep(chaos.TargetSM, i, now) {
					if gap := now - 1 - e.smLast[i]; gap > 0 {
						c.CatchUp(gap)
					}
					s.Engine.SMTicks++
					c.Tick(now, s.x.PopResponse(i, now))
					e.smLast[i] = now
					e.smWake[i] = c.NextWakeup(now)
					if !e.smDone[i] && c.Done() {
						e.smDone[i] = true
						e.live--
					}
				}
				if e.smWake[i] < e.smBase {
					e.smBase = e.smWake[i]
				}
			}
		}
		if now >= e.partBase || now >= s.x.MinReqWake() {
			for ch, p := range s.parts {
				eff := e.pWake[ch]
				if rw := s.x.ReqWake(ch); rw < eff {
					eff = rw
				}
				if s.net != nil {
					if nd := s.net.NextDue(ch); nd < eff {
						eff = nd
					}
				}
				if eff > now || e.f.Asleep(chaos.TargetPartition, ch, now) {
					continue
				}
				s.Engine.PartTicks++
				p.Tick(now)
				e.pWake[ch] = p.NextWakeup(now)
			}
			// Recompute partBase in a second pass: a partition ticked late
			// in the loop may have broadcast a coordination message due at
			// an earlier-indexed partition.
			e.partBase = bigTick
			for ch := range s.parts {
				b := e.pWake[ch]
				if s.net != nil {
					if nd := s.net.NextDue(ch); nd < b {
						b = nd
					}
				}
				if b < e.partBase {
					e.partBase = b
				}
			}
		}
		if now == e.nextSample {
			// Idle accounting must be current through this tick before
			// the sampler snapshots the SM counters.
			s.catchUpSMs(now, e.smLast)
			s.sample(now)
			e.lastSample = now
			e.nextSample = now + s.Tel.Sampler.Every
		}
		if e.live == 0 {
			e.doneTick = now
			return
		}
		if stopQuiescent && s.quiescent() {
			// Leave e.now at the tick after the one that drained the
			// last request: quiescence was observed post-Tick.
			e.now = now + 1
			return
		}
		if now >= e.wd.next {
			if e.stall = e.wd.check(now); e.stall != nil {
				return
			}
		}
	}
}

// finish is the end-of-run tail: it brings the SM idle counters
// current, flushes telemetry and assembles Results, with the
// StallError of an aborted run or a *guard.StallError of kind
// StallCycleBudget when MaxTicks ran out.
func (e *stepper) finish() (Results, error) {
	s := e.s
	if e.stall != nil {
		// Aborted mid-run: bring idle accounting current through the
		// abort tick so partial Results read dense-identical counters.
		s.catchUpSMs(s.now, e.smLast)
	} else if e.doneTick < 0 && e.now >= s.Cfg.MaxTicks {
		// MaxTicks exhausted: a dense loop would have ticked (and
		// idle-counted) every SM through MaxTicks-1.
		s.now = s.Cfg.MaxTicks
		s.catchUpSMs(s.Cfg.MaxTicks-1, e.smLast)
	} else if e.doneTick >= 0 {
		s.now = e.doneTick
	}
	if s.Tel != nil {
		s.flushTelemetry(e.lastSample)
	}
	res := s.results(e.doneTick)
	if e.stall != nil {
		return res, e.stall
	}
	if e.doneTick < 0 {
		return res, s.stallError(guard.StallCycleBudget, s.now, s.Cfg.MaxTicks)
	}
	return res, nil
}

// catchUpSMs flushes batched idle accounting for every SM through tick
// `through` (inclusive), so samples and results read dense-identical
// counters.
func (s *System) catchUpSMs(through int64, smLast []int64) {
	for i, c := range s.sms {
		if gap := through - smLast[i]; gap > 0 {
			c.CatchUp(gap)
			smLast[i] = through
		}
	}
}

// flushTelemetry takes the final interval sample and closes any spans
// (write drains, MERB streaks) still open at end of run, so exported
// traces have balanced begin/end pairs.
func (s *System) flushTelemetry(lastSample int64) {
	if s.Tel.Sampler != nil && s.now > lastSample {
		s.sample(s.now)
	}
	for _, p := range s.parts {
		p.ctl.FlushTelemetry(s.now)
		if p.ws != nil {
			p.ws.FlushTelemetry(s.now)
		}
	}
}

// sample snapshots every channel, every SM and the global gauges.
func (s *System) sample(now int64) {
	for _, p := range s.parts {
		p.sample(now)
	}
	samp := s.Tel.Sampler
	for i, c := range s.sms {
		samp.SMs = append(samp.SMs, telemetry.SMSample{
			Tick: now, SM: i,
			Instr:   c.InstrIssued,
			Active:  c.ActiveTicks,
			IdleMem: c.IdleMemTicks,
			IdleLSU: c.IdleLSUTicks,
			Idle:    c.IdleTicks,
		})
	}
	samp.Globals = append(samp.Globals, telemetry.GlobalSample{
		Tick:              now,
		OutstandingGroups: s.Col.Outstanding(),
		CompletedGroups:   len(s.Col.Done()),
	})
}

func (s *System) results(doneTick int64) Results {
	r := Results{Scheduler: s.Cfg.Scheduler, Workload: s.name, Drained: doneTick >= 0}
	if doneTick < 0 {
		doneTick = s.now
	}
	r.Ticks = doneTick
	for _, c := range s.sms {
		r.Instr += c.InstrIssued
	}
	if r.Ticks > 0 {
		r.IPC = float64(r.Instr) / float64(r.Ticks)
	}
	r.Summary = s.Col.Summarize()
	gaps := s.Col.Gaps()
	r.GapP50 = stats.PercentileOf(gaps, 50)
	r.GapP90 = stats.PercentileOf(gaps, 90)
	r.GapP99 = stats.PercentileOf(gaps, 99)

	var l1h, l1m, l2h, l2m int64
	var idle, act int64
	for _, c := range s.sms {
		l1h += c.L1.Hits
		l1m += c.L1.Misses
		idle += c.IdleTicks
		act += c.ActiveTicks
	}
	if idle+act > 0 {
		r.SMIdleFrac = float64(idle) / float64(idle+act)
	}
	var busy int64
	for _, p := range s.parts {
		st := p.ctl.Chan.Stats
		r.DRAM.Refreshes += st.Refreshes
		r.DRAM.ACTs += st.ACTs
		r.DRAM.PREs += st.PREs
		r.DRAM.RDBursts += st.RDBursts
		r.DRAM.WRBursts += st.WRBursts
		r.DRAM.HitTxns += st.HitTxns
		r.DRAM.MissTxns += st.MissTxns
		r.DRAM.ReadTxns += st.ReadTxns
		r.DRAM.WriteTxns += st.WriteTxns
		r.DRAM.BusyTicks += st.BusyTicks
		busy += st.BusyTicks
		l2h += p.l2.Hits
		l2m += p.l2.Misses
		r.DrainsStarted += p.ctl.Stats.DrainsStarted
		if p.ws != nil {
			r.DrainStalledGroups += p.ws.Stats.DrainStalledGroups
			r.DrainStalledUnitOrOrphan += p.ws.Stats.DrainStalledUnitOrOrphan
			r.CoordMessages += p.ws.Stats.CoordSent
			r.CoordApplied += p.ws.Stats.CoordApplied
			r.CoordSoleBlocker += p.ws.Stats.CoordSoleBlocker
			r.GroupsSelected += p.ws.Stats.GroupsSelected
			r.MERBFillers += p.ws.Stats.MERBFillers + p.ws.Stats.OrphanRideAlongs
			r.UnitRush += p.ws.Stats.UnitRushDispatches
		}
	}
	if r.Ticks > 0 {
		r.Utilization = float64(busy) / float64(int64(s.Cfg.NumChannels)*r.Ticks)
	}
	r.RowHitRate = r.DRAM.RowHitRate()
	if l1h+l1m > 0 {
		r.L1HitRate = float64(l1h) / float64(l1h+l1m)
	}
	if l2h+l2m > 0 {
		r.L2HitRate = float64(l2h) / float64(l2h+l2m)
	}
	if tot := r.DRAM.RDBursts + r.DRAM.WRBursts; tot > 0 {
		r.WriteFrac = float64(r.DRAM.WRBursts) / float64(tot)
	}
	return r
}
