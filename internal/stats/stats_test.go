package stats

import (
	"testing"

	"dramlat/internal/memreq"
)

func gid(load uint32) memreq.GroupID { return memreq.GroupID{SM: 1, Warp: 2, Load: load} }

func TestFullyResidentLoadNotTracked(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(1), 100, 4, 0)
	if c.Outstanding() != 0 {
		t.Fatal("fully resident load tracked as group")
	}
	if c.TotalLoads != 1 || c.TotalLines != 4 || c.MultiReqLoads != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestGroupLifecycle(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(1), 100, 6, 3)
	if c.Outstanding() != 1 {
		t.Fatal("group not tracked")
	}
	c.OnMCArrive(gid(1), 0)
	c.OnMCArrive(gid(1), 4)
	c.OnMCArrive(gid(1), 4)
	c.OnDRAMDone(gid(1), 300)
	c.OnDRAMDone(gid(1), 450)
	c.OnResp(gid(1), 340)
	c.OnResp(gid(1), 490)
	if c.Outstanding() != 1 {
		t.Fatal("group finalized early")
	}
	c.OnResp(gid(1), 520)
	if c.Outstanding() != 0 || len(c.Done()) != 1 {
		t.Fatal("group not finalized on last response")
	}
	g := c.Done()[0]
	if g.FirstResp != 340 || g.LastResp != 520 {
		t.Fatalf("resp window %d..%d", g.FirstResp, g.LastResp)
	}
	if g.FirstDRAMDone != 300 || g.LastDRAMDone != 450 {
		t.Fatalf("dram window %d..%d", g.FirstDRAMDone, g.LastDRAMDone)
	}
	if g.MCArrived != 3 || g.Channels.Count() != 2 || !g.Channels.Has(0) || !g.Channels.Has(4) {
		t.Fatalf("mc arrival: %d channels %d", g.MCArrived, g.Channels.Count())
	}
}

// Events for a group never issued are ignored, whether its warp lies in
// the collector's 2x4 warp table (gid(9)) or beyond it (sm9.w40).
func TestEventsForUnknownGroupIgnored(t *testing.T) {
	c := NewCollector(2, 4)
	for _, id := range []memreq.GroupID{gid(9), {SM: 9, Warp: 40, Load: 9}} {
		c.OnMCArrive(id, 0)
		c.OnDRAMDone(id, 10)
		c.OnResp(id, 20)
	}
	if c.Outstanding() != 0 || len(c.Done()) != 0 {
		t.Fatal("phantom group created")
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector(2, 4)
	// Load 1: two requests, both DRAM-serviced on two channels.
	c.OnLoadIssue(gid(1), 0, 2, 2)
	c.OnMCArrive(gid(1), 0)
	c.OnMCArrive(gid(1), 1)
	c.OnDRAMDone(gid(1), 100)
	c.OnDRAMDone(gid(1), 180)
	c.OnResp(gid(1), 120)
	c.OnResp(gid(1), 200)
	// Load 2: one request (single-channel).
	c.OnLoadIssue(gid(2), 0, 1, 1)
	c.OnMCArrive(gid(2), 3)
	c.OnDRAMDone(gid(2), 90)
	c.OnResp(gid(2), 110)
	// Load 3: fully L1 resident.
	c.OnLoadIssue(gid(3), 0, 1, 0)

	s := c.Summarize()
	if s.Loads != 3 {
		t.Fatalf("loads %d", s.Loads)
	}
	if s.MultiReqFrac < 0.33 || s.MultiReqFrac > 0.34 {
		t.Fatalf("multi frac %v", s.MultiReqFrac)
	}
	if s.ReqsPerLoad != 4.0/3 {
		t.Fatalf("reqs/load %v", s.ReqsPerLoad)
	}
	if s.AvgMCsTouched != 1.5 {
		t.Fatalf("MCs %v", s.AvgMCsTouched)
	}
	if s.DivergenceGap != 80 {
		t.Fatalf("gap %v", s.DivergenceGap)
	}
	// last/first for load 1: 200/120.
	if s.LastOverFirst < 1.66 || s.LastOverFirst > 1.67 {
		t.Fatalf("last/first %v", s.LastOverFirst)
	}
	// effective latency: (200 + 110)/2.
	if s.EffectiveLatency != 155 {
		t.Fatalf("eff lat %v", s.EffectiveLatency)
	}
	if s.MemGroups != 2 {
		t.Fatalf("mem groups %d", s.MemGroups)
	}
}

func TestStores(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnStoreIssue(3)
	c.OnStoreIssue(1)
	if c.Stores != 2 || c.StoreLines != 4 {
		t.Fatalf("stores %d lines %d", c.Stores, c.StoreLines)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewCollector(2, 4).Summarize()
	if s.Loads != 0 || s.ReqsPerLoad != 0 || s.EffectiveLatency != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestChannelSet(t *testing.T) {
	var s ChannelSet
	if s.Count() != 0 || s.Has(0) {
		t.Fatal("zero set not empty")
	}
	for _, ch := range []int{0, 5, 5, 63, 64, 100, -1} {
		s.Add(ch)
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (dup and negative must not count)", got)
	}
	for _, ch := range []int{0, 5, 63, 64, 100} {
		if !s.Has(ch) {
			t.Fatalf("missing channel %d", ch)
		}
	}
	for _, ch := range []int{1, 62, 65, 101, -1} {
		if s.Has(ch) {
			t.Fatalf("phantom channel %d", ch)
		}
	}
}

// TestChannelSetWide pins that channel indices beyond one machine word do
// not truncate the Fig 3 controllers-touched count (the old uint32 mask
// aliased channel 32 onto channel 0).
func TestChannelSetWide(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(1), 0, 80, 80)
	for ch := 0; ch < 80; ch++ {
		c.OnMCArrive(gid(1), ch)
	}
	c.OnDRAMDone(gid(1), 10)
	for i := 0; i < 80; i++ {
		c.OnResp(gid(1), 20)
	}
	if got := c.Done()[0].Channels.Count(); got != 80 {
		t.Fatalf("channels touched = %d, want 80", got)
	}
}

// TestPercentile pins the collector's gap percentiles on gaps 10..100:
// Gaps must return the finished groups' gaps sorted (groups finish here in
// descending gap order), and PercentileOf interpolates between ranks.
func TestPercentile(t *testing.T) {
	c := NewCollector(2, 4)
	for i := 10; i >= 1; i-- {
		g := gid(uint32(i))
		c.OnLoadIssue(g, 0, 2, 2)
		c.OnDRAMDone(g, 100)
		c.OnDRAMDone(g, 100+int64(i)*10) // gaps 100..10
		c.OnResp(g, 200)
		c.OnResp(g, 300)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{-5, 10},   // clamped below
		{0, 10},    // p0 = min
		{25, 32.5}, // rank 2.25 between 30 and 40
		{50, 55},   // rank 4.5 between 50 and 60
		{90, 91},   // rank 8.1 between 90 and 100
		{99, 99.1}, // rank 8.91 between 90 and 100
		{100, 100}, // p100 = max
		{150, 100}, // clamped above
	} {
		if got := PercentileOf(c.Gaps(), tc.p); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Fatalf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if PercentileOf(NewCollector(2, 4).Gaps(), 50) != 0 {
		t.Fatal("empty percentile not 0")
	}
}

// TestPercentileOf pins the linear-interpolation definition on 10..100:
// rank = p/100*(n-1), interpolated between the two closest order
// statistics, with p clamped to [0, 100].
func TestPercentileOf(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{-1, 10},   // clamped below
		{0, 10},    // p0 = min
		{25, 32.5}, // rank 2.25 between 30 and 40
		{50, 55},   // rank 4.5 between 50 and 60
		{90, 91},   // rank 8.1 between 90 and 100
		{99, 99.1}, // rank 8.91 between 90 and 100
		{100, 100}, // p100 = max
		{200, 100}, // clamped above
	} {
		if got := PercentileOf(sorted, tc.p); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Fatalf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if PercentileOf(nil, 50) != 0 {
		t.Fatal("empty percentile not 0")
	}
}

// TestPercentileSingleGroup covers the n=1 degenerate distribution: every
// percentile is the lone gap.
func TestPercentileSingleGroup(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(1), 0, 2, 2)
	c.OnDRAMDone(gid(1), 100)
	c.OnDRAMDone(gid(1), 140)
	c.OnResp(gid(1), 150)
	c.OnResp(gid(1), 160)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := PercentileOf(c.Gaps(), p); got != 40 {
			t.Fatalf("p%v = %v, want 40", p, got)
		}
	}
}

func TestOutstandingAtDrain(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(1), 0, 2, 2)
	c.OnLoadIssue(gid(2), 0, 3, 3)
	c.OnResp(gid(1), 50)
	if c.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", c.Outstanding())
	}
	c.OnResp(gid(1), 60) // finalizes group 1
	if c.Outstanding() != 1 || len(c.Done()) != 1 {
		t.Fatalf("outstanding = %d done = %d", c.Outstanding(), len(c.Done()))
	}
	// Group 2 never completes: it stays outstanding (a MaxTicks run).
	if s := c.Summarize(); s.MemGroups != 1 {
		t.Fatalf("mem groups %d, want 1 (unfinalized group must not count)", s.MemGroups)
	}
}

// TestDuplicateFinalizationGuard pins that responses beyond Sent cannot
// finalize (and double-append) a group twice.
func TestDuplicateFinalizationGuard(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(1), 0, 1, 1)
	c.OnResp(gid(1), 10)
	c.OnResp(gid(1), 20) // late duplicate: group already finalized+removed
	if len(c.Done()) != 1 {
		t.Fatalf("done = %d, want 1", len(c.Done()))
	}
	if g := c.Done()[0]; g.LastResp != 10 || !g.Completed {
		t.Fatalf("finalized record mutated by late response: %+v", g)
	}
}

// TestOnLoadIssueZeroSentThenEvents covers the sent==0 path followed by
// stray downstream events for the same ID: nothing may be tracked.
func TestOnLoadIssueZeroSentThenEvents(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnLoadIssue(gid(7), 0, 2, 0)
	c.OnMCArrive(gid(7), 1)
	c.OnDRAMDone(gid(7), 30)
	c.OnResp(gid(7), 40)
	if c.Outstanding() != 0 || len(c.Done()) != 0 {
		t.Fatal("zero-sent load leaked into tracking")
	}
	if s := c.Summarize(); s.Loads != 1 || s.MemGroups != 0 {
		t.Fatalf("summary %+v", s)
	}
}

// Under the zero-divergence ideal a warp can hold two live loads: each
// keeps its own record, and finishing the younger first leaves the older
// one tracked. Groups of warps beyond the warp table are tracked too.
func TestTwoLiveGroupsOnOneWarp(t *testing.T) {
	c := NewCollector(2, 4)
	beyond := memreq.GroupID{SM: 7, Warp: 9, Load: 1}
	c.OnLoadIssue(gid(1), 0, 2, 2)
	c.OnLoadIssue(gid(2), 5, 1, 1)
	c.OnLoadIssue(beyond, 6, 1, 1)
	c.OnDRAMDone(gid(1), 40)
	c.OnResp(gid(1), 50) // first response of load 1
	c.OnDRAMDone(gid(2), 60)
	c.OnResp(gid(2), 70) // load 2 finishes first
	if c.Outstanding() != 2 || len(c.Done()) != 1 || c.Done()[0].ID != gid(2) {
		t.Fatalf("after load 2: outstanding %d, done %v", c.Outstanding(), c.Done())
	}
	c.OnDRAMDone(gid(1), 80)
	c.OnResp(gid(1), 90)
	c.OnResp(beyond, 95)
	if c.Outstanding() != 0 || len(c.Done()) != 3 {
		t.Fatalf("outstanding %d, done %d", c.Outstanding(), len(c.Done()))
	}
	g1 := c.Done()[1]
	if g1.ID != gid(1) || g1.FirstResp != 50 || g1.LastResp != 90 || g1.DRAMDone != 2 || g1.IssueTick != 0 {
		t.Fatalf("load 1 record %+v", g1)
	}
	if g2 := c.Done()[0]; g2.FirstResp != 70 || g2.LastResp != 70 || g2.IssueTick != 5 {
		t.Fatalf("load 2 record %+v", g2)
	}
	if c.Done()[2].ID != beyond {
		t.Fatalf("beyond-table record %+v", c.Done()[2])
	}
}

// TestCollectorSteadyStateAllocs pins that tracking a warp-load costs no
// allocation beyond its record: issue, MC arrival, DRAM completion and
// response lookups on the warp table, and finalization. The records and
// the done list are the run's output and are retained by design (one
// record chunk per 256 loads), so each run hands them back first.
func TestCollectorSteadyStateAllocs(t *testing.T) {
	c := NewCollector(2, 4)
	var serial uint32
	run := func() {
		c.done, c.recs = c.done[:0], c.recs[:0]
		for w := uint16(0); w < 4; w++ {
			// Two overlapping loads per warp, finished oldest-last.
			a := memreq.GroupID{SM: 1, Warp: w, Load: serial + 1}
			b := memreq.GroupID{SM: 1, Warp: w, Load: serial + 2}
			c.OnLoadIssue(a, 0, 2, 2)
			c.OnLoadIssue(b, 1, 1, 1)
			for _, id := range []memreq.GroupID{a, b, a} {
				c.OnMCArrive(id, 3)
				c.OnDRAMDone(id, 10)
			}
			c.OnResp(a, 20)
			c.OnResp(b, 30)
			c.OnResp(a, 40)
		}
		serial += 2
	}
	for i := 0; i < 10; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("warm issue/finalize loop allocated %.2f times per run, want 0", avg)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding %d", c.Outstanding())
	}
}
