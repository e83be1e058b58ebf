package gpu

import (
	"dramlat/internal/guard"
	"dramlat/internal/guard/chaos"
)

// RunDense runs s on the dense reference loop, the differential-testing
// oracle for the stepper (TestEventDrivenMatchesDense): every component
// ticks every cycle, and the DRAM channels run without their wake cache,
// so the oracle shares no skipping logic with the production engine. It
// is not an engine: no Config.Engine value selects it, and only tests
// call it.
func (s *System) RunDense() (Results, error) {
	for _, p := range s.parts {
		p.ctl.Chan.WakeCache = false
	}
	doneTick := int64(-1)
	// nextSample keeps the per-tick telemetry cost to one compare when
	// sampling is off (it never matches).
	nextSample := int64(-1)
	lastSample := int64(-1)
	if s.Tel != nil && s.Tel.Sampler != nil {
		nextSample = s.Tel.Sampler.Every
	}
	smDone := make([]bool, len(s.sms))
	live := 0
	for i, c := range s.sms {
		if c.Done() {
			smDone[i] = true
		} else {
			live++
		}
	}
	wd := s.newWatchdog()
	f := s.Cfg.Faults
	var stall *guard.StallError
	for s.now = 0; s.now < s.Cfg.MaxTicks; s.now++ {
		now := s.now
		f.CheckPanic(now)
		s.Engine.VisitedTicks++
		s.Engine.SMTicks += int64(len(s.sms))
		s.Engine.PartTicks += int64(len(s.parts))
		for i, c := range s.sms {
			if f.Asleep(chaos.TargetSM, i, now) {
				continue
			}
			c.Tick(now, s.x.PopResponse(i, now))
			if !smDone[i] && c.Done() {
				smDone[i] = true
				live--
			}
		}
		for ch, p := range s.parts {
			if f.Asleep(chaos.TargetPartition, ch, now) {
				continue
			}
			p.Tick(now)
		}
		if now == nextSample {
			s.sample(now)
			lastSample = now
			nextSample = now + s.Tel.Sampler.Every
		}
		if live == 0 {
			doneTick = now
			break
		}
		if now >= wd.next {
			if stall = wd.check(now); stall != nil {
				break
			}
		}
	}
	if s.Tel != nil {
		s.flushTelemetry(lastSample)
	}
	res := s.results(doneTick)
	if doneTick < 0 && stall == nil {
		stall = s.stallError(guard.StallCycleBudget, s.now, s.Cfg.MaxTicks)
	}
	if stall != nil {
		return res, stall
	}
	return res, nil
}
