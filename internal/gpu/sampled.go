package gpu

import (
	"sort"

	"dramlat/internal/core"
	"dramlat/internal/dram"
	"dramlat/internal/memctrl"
	"dramlat/internal/stats"
	"dramlat/internal/telemetry"
)

// The sampled engine (Cfg.Engine == EngineSampled) trades exactness
// for wall-clock: it alternates short full-fidelity measurement
// windows — run on the event engine's stepper — with fast-forward
// regions where warp progress and memory behavior advance by
// statistical models calibrated from the window just measured. Each
// region is
//
//	measure (W detailed cycles)   calibrate per-SM issue rates, the
//	                              warp-group latency/divergence sample
//	                              and per-channel DRAM/L2 rates
//	drain   (detailed)            freeze every SM's issue stage and run
//	                              the detailed core until the memory
//	                              system is empty — the model then jumps
//	                              from a state with no in-flight requests
//	fast-forward (F modeled)      bulk-advance warp PCs at the calibrated
//	                              rates; resample whole warp-group records
//	                              into the collector; scale the window's
//	                              counter deltas by F/W
//	warm-up (U detailed cycles)   resume detailed execution to re-converge
//	                              cache/row-buffer/queue state before the
//	                              next measurement window
//
// Results carry Approximate=true and window-to-window error bars; they
// are validated distributionally against the event engine (see
// internal/stats.Check and DESIGN.md "Sampled engine"), never
// byte-compared.

// maxDrainFactor bounds the drain phase at maxDrainFactor×WindowCycles
// detailed cycles; a drain that has not quiesced by then (pathological
// queue churn) skips its jump and the region continues detailed, so
// sampling degrades to exact simulation instead of stalling.
const maxDrainFactor = 8

// scaleCount scales a window-delta counter to a fast-forward region:
// round(x·f), deterministic.
func scaleCount(x int64, f float64) int64 {
	if x <= 0 {
		return 0
	}
	return int64(float64(x)*f + 0.5)
}

// quiescent reports whether no memory state is in flight anywhere:
// every SM drained (no replay, no outstanding fills, no blocked
// warps), the crossbar empty in both directions, every partition's
// pipeline/controller/channel idle, and no coordination messages
// pending. With SMs frozen this is the sampled engine's jump point.
func (s *System) quiescent() bool {
	for _, c := range s.sms {
		if !c.Quiescent() {
			return false
		}
	}
	if !s.x.Empty() {
		return false
	}
	for ch, p := range s.parts {
		if !p.drained() {
			return false
		}
		if s.net != nil && s.net.PendingFor(ch) > 0 {
			return false
		}
	}
	return true
}

// calSnap is the counter snapshot taken at a measurement-window start;
// calibrate turns two snapshots into a window model.
type calSnap struct {
	instr  []int64
	l1h    []int64
	l1m    []int64
	mark   int
	loads  int64
	multi  int64
	lines  int64
	stores int64
	stLine int64
	dram   []dram.Stats
	ctl    []memctrl.Stats
	ws     []core.Stats
	l2h    []int64
	l2m    []int64
}

func (s *System) snapshotCounters() calSnap {
	sn := calSnap{
		instr: make([]int64, len(s.sms)),
		l1h:   make([]int64, len(s.sms)),
		l1m:   make([]int64, len(s.sms)),
		mark:  s.Col.Mark(),
		loads: s.Col.TotalLoads, multi: s.Col.MultiReqLoads, lines: s.Col.TotalLines,
		stores: s.Col.Stores, stLine: s.Col.StoreLines,
		dram: make([]dram.Stats, len(s.parts)),
		ctl:  make([]memctrl.Stats, len(s.parts)),
		ws:   make([]core.Stats, len(s.parts)),
		l2h:  make([]int64, len(s.parts)),
		l2m:  make([]int64, len(s.parts)),
	}
	for i, c := range s.sms {
		sn.instr[i] = c.InstrIssued
		sn.l1h[i] = c.L1.Hits
		sn.l1m[i] = c.L1.Misses
	}
	for ch, p := range s.parts {
		sn.dram[ch] = p.ctl.Chan.Stats
		sn.ctl[ch] = p.ctl.Stats
		if p.ws != nil {
			sn.ws[ch] = p.ws.Stats
		}
		sn.l2h[ch] = p.l2.Hits
		sn.l2m[ch] = p.l2.Misses
	}
	return sn
}

// calibration is one window's statistical model plus the per-window
// summary feeding the error bars.
type calibration struct {
	winLen  int64
	dInstr  []int64
	dL1h    []int64
	dL1m    []int64
	recs    []stats.GroupRec // window-completed warp-groups, by value
	dLoads  int64
	dMulti  int64
	dLines  int64
	dStores int64
	dStLine int64
	dDRAM   []dram.Stats
	dCtl    []memctrl.Stats
	dWS     []core.Stats
	dL2h    []int64
	dL2m    []int64

	winIPC                 float64
	winP50, winP90, winP99 float64
}

func (s *System) calibrate(sn calSnap, winLen int64) calibration {
	c := calibration{
		winLen: winLen,
		dInstr: make([]int64, len(s.sms)),
		dL1h:   make([]int64, len(s.sms)),
		dL1m:   make([]int64, len(s.sms)),
		dDRAM:  make([]dram.Stats, len(s.parts)),
		dCtl:   make([]memctrl.Stats, len(s.parts)),
		dWS:    make([]core.Stats, len(s.parts)),
		dL2h:   make([]int64, len(s.parts)),
		dL2m:   make([]int64, len(s.parts)),
		dLoads: s.Col.TotalLoads - sn.loads, dMulti: s.Col.MultiReqLoads - sn.multi,
		dLines: s.Col.TotalLines - sn.lines, dStores: s.Col.Stores - sn.stores,
		dStLine: s.Col.StoreLines - sn.stLine,
	}
	var instr int64
	for i, sm := range s.sms {
		c.dInstr[i] = sm.InstrIssued - sn.instr[i]
		c.dL1h[i] = sm.L1.Hits - sn.l1h[i]
		c.dL1m[i] = sm.L1.Misses - sn.l1m[i]
		instr += c.dInstr[i]
	}
	for _, g := range s.Col.DoneSince(sn.mark) {
		c.recs = append(c.recs, *g)
	}
	for ch, p := range s.parts {
		c.dDRAM[ch] = subDRAM(p.ctl.Chan.Stats, sn.dram[ch])
		c.dCtl[ch] = subCtl(p.ctl.Stats, sn.ctl[ch])
		if p.ws != nil {
			c.dWS[ch] = subWS(p.ws.Stats, sn.ws[ch])
		}
		c.dL2h[ch] = p.l2.Hits - sn.l2h[ch]
		c.dL2m[ch] = p.l2.Misses - sn.l2m[ch]
	}
	if winLen > 0 {
		c.winIPC = float64(instr) / float64(winLen)
	}
	var gaps []float64
	for i := range c.recs {
		if g := &c.recs[i]; g.DRAMDone >= 2 {
			gaps = append(gaps, float64(g.LastDRAMDone-g.FirstDRAMDone))
		}
	}
	sort.Float64s(gaps)
	c.winP50 = stats.PercentileOf(gaps, 50)
	c.winP90 = stats.PercentileOf(gaps, 90)
	c.winP99 = stats.PercentileOf(gaps, 99)
	return c
}

func subDRAM(a, b dram.Stats) dram.Stats {
	a.Refreshes -= b.Refreshes
	a.ACTs -= b.ACTs
	a.PREs -= b.PREs
	a.RDBursts -= b.RDBursts
	a.WRBursts -= b.WRBursts
	a.HitTxns -= b.HitTxns
	a.MissTxns -= b.MissTxns
	a.ReadTxns -= b.ReadTxns
	a.WriteTxns -= b.WriteTxns
	a.BusyTicks -= b.BusyTicks
	return a
}

func subCtl(a, b memctrl.Stats) memctrl.Stats {
	a.ReadsAccepted -= b.ReadsAccepted
	a.WritesAccepted -= b.WritesAccepted
	a.ReadsDone -= b.ReadsDone
	a.WritesDone -= b.WritesDone
	a.DrainsStarted -= b.DrainsStarted
	a.DrainTicks -= b.DrainTicks
	a.ReadQFullRejects -= b.ReadQFullRejects
	a.WriteQFullRejects -= b.WriteQFullRejects
	a.GroupCompleteSignals -= b.GroupCompleteSignals
	return a
}

func subWS(a, b core.Stats) core.Stats {
	a.GroupsSelected -= b.GroupsSelected
	a.IncompleteFallbacks -= b.IncompleteFallbacks
	a.AgePromotions -= b.AgePromotions
	a.MERBFillers -= b.MERBFillers
	a.OrphanRideAlongs -= b.OrphanRideAlongs
	a.UnitRushDispatches -= b.UnitRushDispatches
	a.CoordSent -= b.CoordSent
	a.CoordApplied -= b.CoordApplied
	a.CoordSoleBlocker -= b.CoordSoleBlocker
	a.SharedDemands -= b.SharedDemands
	a.DrainStalledGroups -= b.DrainStalledGroups
	a.DrainStalledUnitOrOrphan -= b.DrainStalledUnitOrOrphan
	return a
}

// fastForward advances the quiescent system F wall cycles using the
// window model, injecting H >= F cycles' worth of modeled activity:
// H = F + drain length, so the jump also stands in for the issue the
// frozen drain phase suppressed — without the compensation every
// region would add dead cycles the exact run does not have, biasing
// IPC low. Per-SM instruction budgets advance at the calibrated
// rates; synthetic warp-group records are resampled from the window's
// completed groups (timestamps shifted into the modeled interval);
// every per-channel counter delta scales by H/W. drift != 1 is the
// chaos injection biasing the model for AccuracyError tests. Returns
// the estimated completion tick if every warp retired mid-jump, else
// -1.
func (e *stepper) fastForward(cal calibration, H, F, drainStart int64, rng *stats.Stream, drift float64) int64 {
	s := e.s
	f := float64(H) / float64(cal.winLen)
	ffStart := e.now
	end := ffStart + F

	// Restart-phase jitter horizon: twice the window's mean warp-group
	// round-trip. Spreading restarts over a latency-scale horizon
	// re-seeds the warp-phase dispersion the drain collapsed — the slow
	// mode behind steady-state divergence gaps (see SM.FastForward).
	var latSum, latN int64
	for i := range cal.recs {
		if g := &cal.recs[i]; g.LastResp >= 0 && g.LastResp > g.IssueTick {
			latSum += g.LastResp - g.IssueTick
			latN++
		}
	}
	var spread int64
	if latN > 0 {
		spread = 2 * latSum / latN
	}
	if spread > F/2 {
		spread = F / 2
	}
	var jitter func() int64
	if spread > 0 {
		jitter = func() int64 { return int64(rng.Float64() * float64(spread)) }
	}

	// Warp progress: budgets from the calibrated per-SM issue rates.
	allDoneAt := int64(-1)
	for i, c := range s.sms {
		if c.Done() {
			continue
		}
		budget := scaleCount(cal.dInstr[i], f*drift)
		issued := c.FastForward(budget, F, end, drainStart, jitter)
		if c.Done() {
			// Finished mid-jump: estimate when, proportional to the
			// budget fraction it consumed.
			at := ffStart + 1
			if budget > 0 {
				at = ffStart + scaleCount(F, float64(issued)/float64(budget))
				if at <= ffStart {
					at = ffStart + 1
				}
			}
			if at > allDoneAt {
				allDoneAt = at
			}
		}
		c.L1.Hits += scaleCount(cal.dL1h[i], f)
		c.L1.Misses += scaleCount(cal.dL1m[i], f)
	}

	// Memory behavior: resample whole warp-group records from the
	// window into the modeled interval. Cloning preserves the joint
	// distribution of lines, channels touched, DRAM window and response
	// window that Summarize and the gap percentiles are built from.
	if n := len(cal.recs); n > 0 {
		for k := scaleCount(int64(n), f); k > 0; k-- {
			g := cal.recs[rng.Intn(n)]
			shift := ffStart + int64(rng.Float64()*float64(F)) - g.IssueTick
			g.IssueTick += shift
			if drift != 1 {
				g.LastDRAMDone = g.FirstDRAMDone + int64(drift*float64(g.LastDRAMDone-g.FirstDRAMDone))
				g.LastResp = g.FirstResp + int64(drift*float64(g.LastResp-g.FirstResp))
			}
			if g.FirstDRAMDone >= 0 {
				g.FirstDRAMDone += shift
				g.LastDRAMDone += shift
			}
			if g.FirstResp >= 0 {
				g.FirstResp += shift
				g.LastResp += shift
			}
			s.Col.AddSynthetic(g)
		}
	}
	s.Col.AddModeled(
		scaleCount(cal.dLoads, f), scaleCount(cal.dMulti, f), scaleCount(cal.dLines, f),
		scaleCount(cal.dStores, f), scaleCount(cal.dStLine, f))

	// Channel-side counters: scale the window deltas.
	for ch, p := range s.parts {
		d := &cal.dDRAM[ch]
		st := &p.ctl.Chan.Stats
		st.ACTs += scaleCount(d.ACTs, f)
		st.PREs += scaleCount(d.PREs, f)
		st.RDBursts += scaleCount(d.RDBursts, f)
		st.WRBursts += scaleCount(d.WRBursts, f)
		st.HitTxns += scaleCount(d.HitTxns, f)
		st.MissTxns += scaleCount(d.MissTxns, f)
		st.ReadTxns += scaleCount(d.ReadTxns, f)
		st.WriteTxns += scaleCount(d.WriteTxns, f)
		st.BusyTicks += scaleCount(d.BusyTicks, f)
		dc := &cal.dCtl[ch]
		cs := &p.ctl.Stats
		cs.ReadsAccepted += scaleCount(dc.ReadsAccepted, f)
		cs.WritesAccepted += scaleCount(dc.WritesAccepted, f)
		cs.ReadsDone += scaleCount(dc.ReadsDone, f)
		cs.WritesDone += scaleCount(dc.WritesDone, f)
		cs.DrainsStarted += scaleCount(dc.DrainsStarted, f)
		cs.DrainTicks += scaleCount(dc.DrainTicks, f)
		cs.GroupCompleteSignals += scaleCount(dc.GroupCompleteSignals, f)
		if p.ws != nil {
			dw := &cal.dWS[ch]
			wsst := &p.ws.Stats
			wsst.GroupsSelected += scaleCount(dw.GroupsSelected, f)
			wsst.IncompleteFallbacks += scaleCount(dw.IncompleteFallbacks, f)
			wsst.AgePromotions += scaleCount(dw.AgePromotions, f)
			wsst.MERBFillers += scaleCount(dw.MERBFillers, f)
			wsst.OrphanRideAlongs += scaleCount(dw.OrphanRideAlongs, f)
			wsst.UnitRushDispatches += scaleCount(dw.UnitRushDispatches, f)
			wsst.CoordSent += scaleCount(dw.CoordSent, f)
			wsst.CoordApplied += scaleCount(dw.CoordApplied, f)
			wsst.CoordSoleBlocker += scaleCount(dw.CoordSoleBlocker, f)
			wsst.SharedDemands += scaleCount(dw.SharedDemands, f)
			wsst.DrainStalledGroups += scaleCount(dw.DrainStalledGroups, f)
			wsst.DrainStalledUnitOrOrphan += scaleCount(dw.DrainStalledUnitOrOrphan, f)
		}
		p.l2.Hits += scaleCount(cal.dL2h[ch], f)
		p.l2.Misses += scaleCount(cal.dL2m[ch], f)
	}

	e.now = end
	s.now = end
	for i, c := range s.sms {
		// The jump is accounted; the first post-jump tick must not
		// CatchUp across it.
		e.smLast[i] = end - 1
		e.smWake[i] = end
		if !e.smDone[i] && c.Done() {
			e.smDone[i] = true
			e.live--
		}
	}
	for ch := range s.parts {
		e.pWake[ch] = end
	}
	e.smBase, e.partBase = end, end
	if e.nextSample >= 0 && e.nextSample <= end {
		e.nextSample = end + s.Tel.Sampler.Every
	}
	if e.live == 0 {
		if allDoneAt < 0 || allDoneAt > end {
			allDoneAt = end
		}
		return allDoneAt
	}
	return -1
}

// freeze gates or releases every SM's issue stage and forces the
// stepping loop to re-ask each live SM for a wakeup under the new
// regime.
func (e *stepper) freeze(v bool) {
	for i, c := range e.s.sms {
		c.SetFrozen(v)
		if !e.smDone[i] {
			e.smWake[i] = e.now
		}
	}
	e.smBase = e.now
}

// emitWindow records a sampled-engine phase boundary in the trace.
func (e *stepper) emitWindow(phase, region int) {
	if t := e.s.Tel; t != nil && t.Tracer != nil {
		t.Tracer.Window(e.now, phase, region)
	}
}

// runSampled is the interval-sampling engine loop; see the package
// comment at the top of this file for the region structure.
func (s *System) runSampled() (Results, error) {
	prm := s.Cfg.Sampled.WithDefaults()
	drift := s.Cfg.Faults.DriftFactor()
	e := s.newStepper()
	var winIPC, winP50, winP90, winP99 []float64
	var detailed, modeled int64
	windows := 0

	// Settle prefix: run detailed past the cold-start transient before
	// the first measurement window. A machine started cold (or drained)
	// takes tens of thousands of cycles to reach steady-state warp-phase
	// dispersion, and the first region's model covers a far larger share
	// of the run than the exact run's own transient does — calibrating
	// it on a cold machine systematically shortens the modeled
	// divergence-gap distribution.
	if settle := prm.WarmupCycles + prm.WindowCycles; settle > 0 && e.live > 0 {
		e.emitWindow(telemetry.WindowWarmup, 0)
		t0 := e.now
		e.stepUntil(t0+settle, false)
		detailed += e.now - t0
	}

	for region := 0; e.live > 0 && e.stall == nil && e.now < s.Cfg.MaxTicks; region++ {
		// Measurement window.
		e.emitWindow(telemetry.WindowMeasure, region)
		winStart := e.now
		sn := s.snapshotCounters()
		e.stepUntil(winStart+prm.WindowCycles, false)
		winLen := e.now - winStart
		detailed += winLen
		if e.live == 0 || e.stall != nil || e.now >= s.Cfg.MaxTicks {
			break
		}

		// Drain to quiescence with issue frozen. The memory controller's
		// idle-drain trigger flushes the write queues once reads stop
		// arriving, so a frozen system converges without flush hooks.
		e.emitWindow(telemetry.WindowDrain, region)
		drainStart := e.now
		e.freeze(true)
		e.stepUntil(drainStart+maxDrainFactor*prm.WindowCycles, true)
		D := e.now - drainStart
		detailed += D
		if e.stall != nil {
			e.freeze(false)
			break
		}
		s.catchUpSMs(e.now-1, e.smLast)
		// Calibrate AFTER the drain: frozen SMs issue nothing, so the
		// instruction/load deltas still cover exactly the window, while
		// the group records and DRAM/L2 deltas include the window's
		// in-flight tail — without it, groups slow enough to outlive the
		// window (precisely the long-divergence-gap ones) would never
		// enter the calibration sample and the modeled gap distribution
		// would be biased short.
		cal := s.calibrate(sn, winLen)
		windows++
		winIPC = append(winIPC, cal.winIPC)
		winP50 = append(winP50, cal.winP50)
		winP90 = append(winP90, cal.winP90)
		winP99 = append(winP99, cal.winP99)
		F := prm.FastForwardCycles
		if e.now+F > s.Cfg.MaxTicks {
			F = s.Cfg.MaxTicks - e.now
		}
		if !s.quiescent() || F <= 0 || cal.winLen <= 0 {
			// No jump point: resume detailed and try again next region.
			e.freeze(false)
			continue
		}

		// Fast-forward.
		e.emitWindow(telemetry.WindowFastForward, region)
		rng := stats.NewStream(prm.Key, prm.Seed, region)
		doneAt := e.fastForward(cal, D+F, F, drainStart, rng, drift)
		modeled += F
		e.freeze(false)
		if doneAt >= 0 {
			e.doneTick = doneAt
			break
		}

		// Warm-up (detailed, excluded from the next calibration by
		// virtue of the next window snapshotting after it).
		e.emitWindow(telemetry.WindowWarmup, region)
		wuStart := e.now
		e.stepUntil(wuStart+prm.WarmupCycles, false)
		detailed += e.now - wuStart
	}

	res, err := e.finish()
	res.Approximate = true
	_, ipcErr := stats.MeanCI95(winIPC)
	_, p50Err := stats.MeanCI95(winP50)
	_, p90Err := stats.MeanCI95(winP90)
	_, p99Err := stats.MeanCI95(winP99)
	res.Sampling = &SamplingStats{
		Windows:       windows,
		DetailedTicks: detailed,
		ModeledTicks:  modeled,
		IPCErr:        ipcErr,
		GapP50Err:     p50Err,
		GapP90Err:     p90Err,
		GapP99Err:     p99Err,
	}
	return res, err
}
