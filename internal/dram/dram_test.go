package dram

import (
	"math/rand"
	"testing"

	"dramlat/internal/gddr5"
	"dramlat/internal/memreq"
)

func newTestChannel() *Channel {
	return NewChannel(gddr5.Default(), 16, 4, 4)
}

func req(id uint64, kind memreq.Kind, bank, row, col int) *memreq.Request {
	return &memreq.Request{ID: id, Kind: kind, Bank: bank, Row: row, Col: col}
}

// drive runs the channel until idle (or the tick bound), recording every
// issued command with its tick.
type issueRec struct {
	tick int64
	cmd  Command
}

func drive(t *testing.T, c *Channel, start, bound int64) []issueRec {
	t.Helper()
	var log []issueRec
	now := start
	for ; now < bound; now++ {
		if cmd := c.Tick(now); cmd != nil {
			log = append(log, issueRec{now, *cmd})
		}
		if c.Idle() {
			break
		}
	}
	if !c.Idle() {
		t.Fatalf("channel not idle after %d ticks", bound)
	}
	return log
}

// audit independently re-checks every Table II timing constraint over an
// issued command log. It is deliberately a from-scratch re-implementation
// so that a bug in Channel.refreshHead or Channel.channelBounds cannot
// hide itself.
func audit(t *testing.T, tm gddr5.Timing, log []issueRec, banks, groups int) {
	t.Helper()
	type bankState struct {
		openRow        int
		lastACT        int64
		lastPRE        int64
		lastRD, lastWR int64
		wrDataEnd      int64
	}
	const past = -1 << 30
	bs := make([]bankState, banks)
	for i := range bs {
		bs[i] = bankState{openRow: -1, lastACT: past, lastPRE: past, lastRD: past, lastWR: past, wrDataEnd: past}
	}
	var acts []int64
	lastCASGroup := make([]int64, groups)
	for i := range lastCASGroup {
		lastCASGroup[i] = past
	}
	lastCASAny, lastRD, lastWrDataEnd := int64(past), int64(past), int64(past)
	busBusyUntil := int64(past)
	perGroup := banks / groups

	for _, rec := range log {
		b := &bs[rec.cmd.Bank]
		now := rec.tick
		g := rec.cmd.Bank / perGroup
		switch rec.cmd.Type {
		case CmdACT:
			if b.openRow != -1 {
				t.Fatalf("t=%d ACT on open bank %d", now, rec.cmd.Bank)
			}
			if now-b.lastACT < int64(tm.TRC) {
				t.Fatalf("t=%d tRC violation bank %d (last ACT %d)", now, rec.cmd.Bank, b.lastACT)
			}
			if now-b.lastPRE < int64(tm.TRP) {
				t.Fatalf("t=%d tRP violation bank %d", now, rec.cmd.Bank)
			}
			for i := len(acts) - 1; i >= 0; i-- {
				if now-acts[i] < int64(tm.TRRD) {
					t.Fatalf("t=%d tRRD violation (prev ACT %d)", now, acts[i])
				}
				break
			}
			if len(acts) >= 4 {
				if now-acts[len(acts)-4] < int64(tm.TFAW) {
					t.Fatalf("t=%d tFAW violation (4th-last ACT %d)", now, acts[len(acts)-4])
				}
			}
			acts = append(acts, now)
			b.openRow = rec.cmd.Row
			b.lastACT = now
		case CmdPRE:
			if b.openRow == -1 {
				t.Fatalf("t=%d PRE on closed bank %d", now, rec.cmd.Bank)
			}
			if now-b.lastACT < int64(tm.TRAS) {
				t.Fatalf("t=%d tRAS violation bank %d", now, rec.cmd.Bank)
			}
			if b.lastRD != past && now-b.lastRD < int64(tm.TRTP) {
				t.Fatalf("t=%d tRTP violation bank %d", now, rec.cmd.Bank)
			}
			if b.wrDataEnd != past && now-b.wrDataEnd < int64(tm.TWR) {
				t.Fatalf("t=%d tWR violation bank %d", now, rec.cmd.Bank)
			}
			b.openRow = -1
			b.lastPRE = now
		case CmdRD, CmdWR:
			if b.openRow != rec.cmd.Row {
				t.Fatalf("t=%d column to wrong row: open %d want %d", now, b.openRow, rec.cmd.Row)
			}
			if now-b.lastACT < int64(tm.TRCD) {
				t.Fatalf("t=%d tRCD violation bank %d", now, rec.cmd.Bank)
			}
			if now-lastCASGroup[g] < int64(tm.TCCDL) {
				t.Fatalf("t=%d tCCDL violation group %d", now, g)
			}
			if now-lastCASAny < int64(tm.TCCDS) {
				t.Fatalf("t=%d tCCDS violation", now)
			}
			var dataStart int64
			if rec.cmd.Type == CmdRD {
				if lastWrDataEnd != past && now-lastWrDataEnd < int64(tm.TWTR) {
					t.Fatalf("t=%d tWTR violation", now)
				}
				dataStart = now + int64(tm.TCAS)
				b.lastRD = now
				lastRD = now
			} else {
				if lastRD != past && now-lastRD < int64(tm.TRTW) {
					t.Fatalf("t=%d tRTW violation", now)
				}
				dataStart = now + int64(tm.TWL)
				b.lastWR = now
				b.wrDataEnd = dataStart + int64(tm.TBURST)
				lastWrDataEnd = dataStart + int64(tm.TBURST)
			}
			if dataStart < busBusyUntil {
				t.Fatalf("t=%d data bus collision: start %d < busy-until %d", now, dataStart, busBusyUntil)
			}
			busBusyUntil = dataStart + int64(tm.TBURST)
			lastCASGroup[g] = now
			lastCASAny = now
		}
	}
}

func TestSingleReadTiming(t *testing.T) {
	c := newTestChannel()
	var done *Transaction
	var doneAt int64
	c.OnComplete = func(txn *Transaction, at int64) { done, doneAt = txn, at }
	r := req(1, memreq.Read, 0, 5, 0)
	txn := c.Enqueue(r)
	if txn.Hit {
		t.Fatal("first access projected as hit")
	}
	log := drive(t, c, 0, 1000)
	audit(t, c.T, log, 16, 4)
	// Expect ACT@0, RD@tRCD, RD@tRCD+tCCDL (same bank group).
	if len(log) != 3 {
		t.Fatalf("issued %d commands, want 3 (ACT,RD,RD): %+v", len(log), log)
	}
	if log[0].cmd.Type != CmdACT || log[0].tick != 0 {
		t.Fatalf("first command %v@%d, want ACT@0", log[0].cmd.Type, log[0].tick)
	}
	if log[1].cmd.Type != CmdRD || log[1].tick != int64(c.T.TRCD) {
		t.Fatalf("second command %v@%d, want RD@%d", log[1].cmd.Type, log[1].tick, c.T.TRCD)
	}
	if done != txn {
		t.Fatal("completion callback not fired for the transaction")
	}
	wantDone := log[2].tick + int64(c.T.TCAS) + int64(c.T.TBURST)
	if doneAt != wantDone {
		t.Fatalf("doneAt = %d, want %d", doneAt, wantDone)
	}
}

func TestRowHitProjection(t *testing.T) {
	c := newTestChannel()
	t1 := c.Enqueue(req(1, memreq.Read, 3, 7, 0))
	t2 := c.Enqueue(req(2, memreq.Read, 3, 7, 4))
	t3 := c.Enqueue(req(3, memreq.Read, 3, 9, 0))
	if t1.Hit || !t2.Hit || t3.Hit {
		t.Fatalf("hit projection wrong: %v %v %v", t1.Hit, t2.Hit, t3.Hit)
	}
	if c.Stats.HitTxns != 1 || c.Stats.MissTxns != 2 {
		t.Fatalf("stats hits=%d misses=%d", c.Stats.HitTxns, c.Stats.MissTxns)
	}
	log := drive(t, c, 0, 5000)
	audit(t, c.T, log, 16, 4)
	// The second miss must PRE then ACT.
	var seq []CmdType
	for _, rec := range log {
		seq = append(seq, rec.cmd.Type)
	}
	want := []CmdType{CmdACT, CmdRD, CmdRD, CmdRD, CmdRD, CmdPRE, CmdACT, CmdRD, CmdRD}
	if len(seq) != len(want) {
		t.Fatalf("command sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("command %d = %v, want %v (full %v)", i, seq[i], want[i], seq)
		}
	}
}

func TestHitsSinceActCounter(t *testing.T) {
	c := newTestChannel()
	c.Enqueue(req(1, memreq.Read, 0, 7, 0)) // miss: counter = 2 bursts
	if got := c.HitsSinceAct(0); got != 2 {
		t.Fatalf("after miss: HitsSinceAct = %d, want 2", got)
	}
	c.Enqueue(req(2, memreq.Read, 0, 7, 4)) // hit: +2
	if got := c.HitsSinceAct(0); got != 4 {
		t.Fatalf("after hit: HitsSinceAct = %d, want 4", got)
	}
	c.Enqueue(req(3, memreq.Read, 0, 8, 0)) // miss: reset to 2
	if got := c.HitsSinceAct(0); got != 2 {
		t.Fatalf("after second miss: HitsSinceAct = %d, want 2", got)
	}
}

func TestQueueCapAndCanAccept(t *testing.T) {
	c := newTestChannel()
	for i := 0; i < c.QueueCap; i++ {
		if !c.CanAccept(2) {
			t.Fatalf("CanAccept false at %d/%d", i, c.QueueCap)
		}
		c.Enqueue(req(uint64(i), memreq.Read, 2, i, 0))
	}
	if c.CanAccept(2) {
		t.Fatal("CanAccept true at cap")
	}
	if c.CanAccept(3) {
		// other banks unaffected
	} else {
		t.Fatal("CanAccept false for empty bank")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue past cap did not panic")
		}
	}()
	c.Enqueue(req(99, memreq.Read, 2, 42, 0))
}

func TestBankLevelParallelismBeatsSingleBank(t *testing.T) {
	// Four misses to four different bank groups must finish much faster
	// than four misses to one bank (row cycling).
	run := func(banks []int) int64 {
		c := newTestChannel()
		var last int64
		c.OnComplete = func(_ *Transaction, at int64) {
			if at > last {
				last = at
			}
		}
		for i, b := range banks {
			c.Enqueue(req(uint64(i), memreq.Read, b, 100+i, 0))
		}
		log := drive(t, c, 0, 20000)
		audit(t, c.T, log, 16, 4)
		return last
	}
	parallel := run([]int{0, 4, 8, 12})
	serial := run([]int{0, 0, 0, 0})
	if parallel*2 >= serial {
		t.Fatalf("BLP not exploited: parallel=%d serial=%d", parallel, serial)
	}
}

func TestWriteReadTurnaround(t *testing.T) {
	c := newTestChannel()
	c.Enqueue(req(1, memreq.Write, 0, 5, 0))
	c.Enqueue(req(2, memreq.Read, 4, 6, 0)) // different bank group
	log := drive(t, c, 0, 5000)
	audit(t, c.T, log, 16, 4)
	// Find WR then the first RD after it: gap must respect tWTR from
	// write data end.
	var wrTick, rdTick int64 = -1, -1
	for _, rec := range log {
		if rec.cmd.Type == CmdWR && wrTick == -1 {
			wrTick = rec.tick
		}
		if rec.cmd.Type == CmdRD && wrTick != -1 && rdTick == -1 && rec.tick > wrTick {
			rdTick = rec.tick
		}
	}
	if wrTick == -1 || rdTick == -1 {
		t.Fatalf("missing WR/RD in log")
	}
}

func TestCompletionOrderWithinBankIsFIFO(t *testing.T) {
	c := newTestChannel()
	var order []uint64
	c.OnComplete = func(txn *Transaction, _ int64) { order = append(order, txn.Req.ID) }
	// Same bank, same row: must complete in enqueue order.
	for i := 0; i < 4; i++ {
		c.Enqueue(req(uint64(i), memreq.Read, 1, 9, i*4))
	}
	log := drive(t, c, 0, 5000)
	audit(t, c.T, log, 16, 4)
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("completion order %v", order)
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// A single-bank row-hit streak is capped by tCCDL (3 tCK between
	// column commands, 2 tCK of data each) at 2/3 utilization.
	c := newTestChannel()
	var last int64
	c.OnComplete = func(_ *Transaction, at int64) { last = at }
	streak := 16
	for i := 0; i < streak; i++ {
		for !c.CanAccept(0) {
			break
		}
		if c.CanAccept(0) {
			c.Enqueue(req(uint64(i), memreq.Read, 0, 5, i*4%64))
		}
	}
	// QueueCap limits to 4 queued; drain and refill.
	injected := c.QueueCap
	now := int64(0)
	for ; injected < streak || !c.Idle(); now++ {
		c.Tick(now)
		if injected < streak && c.CanAccept(0) {
			c.Enqueue(req(uint64(injected), memreq.Read, 0, 5, injected*4%64))
			injected++
		}
		if now > 5000 {
			t.Fatal("stuck")
		}
	}
	util := float64(c.Stats.BusyTicks) / float64(last)
	if util < 0.4 || util > 2.0/3+0.01 {
		t.Fatalf("single-bank streak utilization %.2f, want in (0.4, 0.67]", util)
	}
	if got := c.Stats.RDBursts; got != int64(2*streak) {
		t.Fatalf("RDBursts = %d, want %d", got, 2*streak)
	}
}

func TestBankGroupInterleaveSaturatesBus(t *testing.T) {
	// Row hits alternating across bank groups are limited only by tCCDS
	// (2 tCK) which equals tBURST, so the bus approaches saturation.
	c := newTestChannel()
	var last int64
	c.OnComplete = func(_ *Transaction, at int64) { last = at }
	banks := []int{0, 4, 8, 12} // one per bank group
	total := 32
	injected := 0
	now := int64(0)
	for ; injected < total || !c.Idle(); now++ {
		for injected < total {
			b := banks[injected%len(banks)]
			if !c.CanAccept(b) {
				break
			}
			c.Enqueue(req(uint64(injected), memreq.Read, b, 5, (injected/len(banks))*4%64))
			injected++
		}
		c.Tick(now)
		if now > 10000 {
			t.Fatal("stuck")
		}
	}
	util := float64(c.Stats.BusyTicks) / float64(last)
	if util < 0.75 {
		t.Fatalf("bank-group interleaved utilization %.2f, want > 0.75", util)
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Fatal("empty stats hit rate not 0")
	}
	s.HitTxns, s.MissTxns = 3, 1
	if s.RowHitRate() != 0.75 {
		t.Fatalf("hit rate %v", s.RowHitRate())
	}
}

// Property test: a random mix of reads and writes across random banks and
// rows always (a) completes every transaction exactly once, (b) produces a
// timing-legal command stream, (c) projects hits exactly.
func TestRandomStreamLegality(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestChannel()
		completed := map[uint64]int{}
		c.OnComplete = func(txn *Transaction, at int64) {
			completed[txn.Req.ID]++
			if txn.DoneAt != at {
				t.Fatalf("DoneAt mismatch")
			}
		}
		total := 0
		var log []issueRec
		now := int64(0)
		inject := 300
		for now < 200000 {
			if inject > 0 && rng.Intn(3) == 0 {
				bankIdx := rng.Intn(16)
				if c.CanAccept(bankIdx) {
					kind := memreq.Read
					if rng.Intn(4) == 0 {
						kind = memreq.Write
					}
					r := req(uint64(total), kind, bankIdx, rng.Intn(8), rng.Intn(64))
					want := c.ProjectHit(r.Bank, r.Row)
					txn := c.Enqueue(r)
					if txn.Hit != want {
						t.Fatalf("seed %d: hit projection mismatch", seed)
					}
					total++
					inject--
				}
			}
			if cmd := c.Tick(now); cmd != nil {
				log = append(log, issueRec{now, *cmd})
			}
			if inject == 0 && c.Idle() {
				break
			}
			now++
		}
		if !c.Idle() {
			t.Fatalf("seed %d: channel stuck", seed)
		}
		if len(completed) != total {
			t.Fatalf("seed %d: %d/%d transactions completed", seed, len(completed), total)
		}
		for id, n := range completed {
			if n != 1 {
				t.Fatalf("seed %d: txn %d completed %d times", seed, id, n)
			}
		}
		audit(t, c.T, log, 16, 4)
		if int(c.Stats.ReadTxns+c.Stats.WriteTxns) != total {
			t.Fatalf("seed %d: txn stats %d+%d != %d", seed, c.Stats.ReadTxns, c.Stats.WriteTxns, total)
		}
	}
}

// tFAW: five misses to five different banks cannot all activate within the
// four-activate window.
func TestFAWEnforced(t *testing.T) {
	c := newTestChannel()
	for i := 0; i < 5; i++ {
		c.Enqueue(req(uint64(i), memreq.Read, i*3%16, 1, 0))
	}
	log := drive(t, c, 0, 5000)
	audit(t, c.T, log, 16, 4)
	var actTicks []int64
	for _, rec := range log {
		if rec.cmd.Type == CmdACT {
			actTicks = append(actTicks, rec.tick)
		}
	}
	if len(actTicks) != 5 {
		t.Fatalf("got %d ACTs, want 5", len(actTicks))
	}
	if actTicks[4]-actTicks[0] < int64(c.T.TFAW) {
		t.Fatalf("5th ACT at %d within tFAW of 1st at %d", actTicks[4], actTicks[0])
	}
}

func TestNewChannelPanicsOnBadGeometry(t *testing.T) {
	for _, geo := range []struct {
		name          string
		banks, groups int
	}{
		{"banks % groups != 0", 15, 4},
		{"banks > maxBanks", 128, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %s", geo.name)
				}
			}()
			NewChannel(gddr5.Default(), geo.banks, geo.groups, 4)
		}()
	}
}

func BenchmarkChannelRandomStream(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := newTestChannel()
	c.OnComplete = func(*Transaction, int64) {}
	now := int64(0)
	for i := 0; i < b.N; i++ {
		bankIdx := rng.Intn(16)
		for !c.CanAccept(bankIdx) {
			c.Tick(now)
			now++
		}
		c.Enqueue(req(uint64(i), memreq.Read, bankIdx, rng.Intn(32), rng.Intn(64)))
		c.Tick(now)
		now++
	}
}
