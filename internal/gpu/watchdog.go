package gpu

import (
	"time"

	"dramlat/internal/guard"
)

// progressSig is the watchdog's forward-progress fingerprint: monotone
// counters that move whenever an instruction issues, a request enters a
// memory controller, or a transaction's data transfer completes. If the
// whole vector is unchanged across a window, nothing retired and no
// warp unblocked in it.
type progressSig struct {
	instr    int64
	accepted int64
	done     int64
}

func (s *System) progress() progressSig {
	var p progressSig
	for _, c := range s.sms {
		p.instr += c.InstrIssued
	}
	for _, pt := range s.parts {
		st := pt.ctl.Stats
		p.accepted += st.ReadsAccepted + st.WritesAccepted
		p.done += st.ReadsDone + st.WritesDone
	}
	return p
}

// watchdogCheckEvery is the default cadence (in sim cycles) at which
// the watchdog samples the progress vector, polls the Stop channel and
// compares the wall clock to the deadline. Fine enough that a deadline
// or cancellation is honored promptly even under a dense spin, coarse
// enough that the scan cost vanishes (one O(SMs+channels) pass per 64K
// cycles). A no-progress budget tighter than the default cadence pulls
// the cadence down to budget/4 (floored) so small budgets still trip
// within ~1.25x their nominal window.
const (
	watchdogCheckEvery = 1 << 16
	watchdogCheckFloor = 1 << 10
)

// watchdog is the per-run liveness checker shared by both engines.
type watchdog struct {
	sys      *System
	budget   int64 // no-progress trip threshold (cycles); <0 disables
	deadline time.Time
	stop     <-chan struct{}

	every      int64 // check cadence (cycles)
	next       int64 // next sim cycle to check at
	last       progressSig
	lastChange int64 // sim cycle the progress vector last moved
}

// newWatchdog builds the run's watchdog; it returns a watchdog even
// when the no-progress check is disabled so deadline/stop polling and
// the MaxTicks stall dump still work.
func (s *System) newWatchdog() *watchdog {
	budget := s.Cfg.StallCycles
	if budget == 0 {
		budget = DefaultStallCycles
	}
	every := int64(watchdogCheckEvery)
	if budget > 0 && budget/4 < every {
		every = budget / 4
		if every < watchdogCheckFloor {
			every = watchdogCheckFloor
		}
	}
	return &watchdog{
		sys:      s,
		budget:   budget,
		deadline: s.Cfg.Deadline,
		stop:     s.Cfg.Stop,
		every:    every,
		next:     every,
		last:     s.progress(),
	}
}

// check runs one watchdog pass at sim cycle now and returns the
// StallError to abort with, or nil. The caller invokes it only when
// now >= wd.next; checks are pure reads, so a run that never stalls is
// byte-identical with and without the watchdog.
func (wd *watchdog) check(now int64) *guard.StallError {
	wd.next = now + wd.every
	if wd.stop != nil {
		select {
		case <-wd.stop:
			return wd.sys.stallError(guard.StallStopped, now, 0)
		default:
		}
	}
	if !wd.deadline.IsZero() && time.Now().After(wd.deadline) {
		return wd.sys.stallError(guard.StallDeadline, now, 0)
	}
	if wd.budget < 0 {
		return nil
	}
	if p := wd.sys.progress(); p != wd.last {
		wd.last = p
		wd.lastChange = now
		return nil
	}
	if now-wd.lastChange >= wd.budget {
		return wd.sys.stallError(guard.StallNoProgress, now, wd.budget)
	}
	return nil
}

// stallError assembles a StallError with the full diagnostic dump.
func (s *System) stallError(kind string, now, budget int64) *guard.StallError {
	return &guard.StallError{Kind: kind, Cycle: now, Budget: budget, Dump: s.stallDump(now)}
}

// stallDump snapshots the stalled system: the per-SM blocked-warp
// table, per-channel queue occupancies, per-bank DRAM state and the
// SMs' pending wakeups. NextWakeup values are best-effort — outside the
// engines' right-after-Tick contract they may be stale bounds — but the
// occupancy and blocked-warp columns are exact.
func (s *System) stallDump(now int64) guard.StallDump {
	d := guard.StallDump{Cycle: now, XbarRespWake: s.x.MinRespWake()}
	for i, c := range s.sms {
		st := guard.SMState{ID: i, ReplayQueue: c.ReplayLen(), NextWakeup: c.NextWakeup(now)}
		for _, w := range c.Warps() {
			if w.Done() {
				continue
			}
			st.LiveWarps++
			if w.Blocked() {
				st.Blocked++
			}
		}
		d.SMs = append(d.SMs, st)
	}
	for ch, p := range s.parts {
		cs := guard.ChannelState{
			Channel:      ch,
			ReadQ:        p.ctl.ReadOccupancy(),
			WriteQ:       p.ctl.WriteOccupancy(),
			SchedPending: p.ctl.Sched.Pending(),
			Draining:     p.ctl.Draining(),
			L2Pipe:       len(p.pipe),
			EvictQ:       len(p.evictQ),
		}
		if s.net != nil {
			cs.CoordPending = s.net.PendingFor(ch)
		}
		for b := 0; b < p.ctl.Chan.NumBanks; b++ {
			cs.Banks = append(cs.Banks, guard.BankState{
				Bank:       b,
				QueuedTxns: p.ctl.Chan.QueuedTxns(b),
				OpenRow:    p.ctl.Chan.OpenRow(b),
				SchedRow:   p.ctl.Chan.SchedRow(b),
			})
		}
		d.Channels = append(d.Channels, cs)
	}
	return d
}
