package sm

import (
	"testing"

	"dramlat/internal/addrmap"
	"dramlat/internal/cache"
	"dramlat/internal/memreq"
	"dramlat/internal/stats"
)

// harness fakes the memory system: it captures injected requests and lets
// tests push responses.
type harness struct {
	sm        *SM
	col       *stats.Collector
	injected  []*memreq.Request
	responses []*memreq.Request
	reject    bool
	id        uint64
}

func newHarness(programs []Program, opts ...func(*Config)) *harness {
	h := &harness{col: stats.NewCollector(1, len(programs))}
	cfg := Config{
		ID:     0,
		Mapper: addrmap.New(6, 16),
		L1: cache.Config{
			SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: 8,
		},
		L1Lat:    4,
		WarpSize: 32,
		Inject: func(r *memreq.Request, now int64) bool {
			if h.reject {
				return false
			}
			// Record a snapshot, not the live pointer: once a request is
			// delivered back the SM recycles it through its freelist, so
			// holding the original would let later issues rewrite history.
			cp := *r
			h.injected = append(h.injected, &cp)
			return true
		},
		NextID:    func() uint64 { h.id++; return h.id },
		Collector: h.col,
	}
	for _, o := range opts {
		o(&cfg)
	}
	h.sm = New(cfg, programs)
	return h
}

func (h *harness) pop() *memreq.Request {
	if len(h.responses) == 0 {
		return nil
	}
	// Hand the SM its own clone: Deliver ends with a freelist Put, and the
	// queued entry is one of the snapshots in h.injected.
	r := *h.responses[0]
	h.responses = h.responses[1:]
	return &r
}

func (h *harness) run(from, to int64) {
	for now := from; now < to; now++ {
		h.sm.Tick(now, h.pop())
	}
}

func divergentLoad(n int) Insn {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i) * 1 << 20 // wildly divergent
	}
	return Insn{Kind: Load, Addrs: addrs}
}

func TestComputeOnlyWarpRetires(t *testing.T) {
	h := newHarness([]Program{{{Kind: Compute}, {Kind: Compute}, {Kind: Compute}}})
	h.run(0, 10)
	if !h.sm.Done() {
		t.Fatal("compute-only warp did not retire")
	}
	if h.sm.InstrIssued != 3 {
		t.Fatalf("issued %d", h.sm.InstrIssued)
	}
}

func TestLoadBlocksUntilLastResponse(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(3), {Kind: Compute}}})
	h.run(0, 5)
	if len(h.injected) != 3 {
		t.Fatalf("injected %d requests, want 3", len(h.injected))
	}
	if h.sm.Done() {
		t.Fatal("warp advanced past blocking load")
	}
	// Return two of three responses: still blocked.
	h.responses = append(h.responses, h.injected[0], h.injected[1])
	h.run(5, 10)
	if h.sm.Done() {
		t.Fatal("warp unblocked before last response")
	}
	h.responses = append(h.responses, h.injected[2])
	h.run(10, 15)
	if !h.sm.Done() {
		t.Fatal("warp stuck after all responses")
	}
}

// Quiescent must see lines still in flight after every warp has moved
// on: under zero divergence the warp retires on the first response while
// two misses are outstanding, and only the L1's MSHRs show them.
func TestQuiescentTracksInFlightLines(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(3), {Kind: Compute}}},
		func(c *Config) { c.ZeroDivergence = true })
	if !h.sm.Quiescent() {
		t.Fatal("fresh SM not quiescent")
	}
	h.run(0, 5)
	h.responses = append(h.responses, h.injected[0])
	h.run(5, 10)
	if !h.sm.Done() || h.sm.Quiescent() {
		t.Fatalf("done %v, quiescent %v with two lines in flight", h.sm.Done(), h.sm.Quiescent())
	}
	h.responses = append(h.responses, h.injected[1], h.injected[2])
	h.run(10, 15)
	if !h.sm.Quiescent() {
		t.Fatal("not quiescent after the last response")
	}
}

func TestZeroDivergenceUnblocksOnFirst(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(3), {Kind: Compute}}},
		func(c *Config) { c.ZeroDivergence = true })
	h.run(0, 5)
	h.responses = append(h.responses, h.injected[0])
	h.run(5, 10)
	if !h.sm.Done() {
		t.Fatal("zero-divergence warp still blocked after first response")
	}
}

func TestPerfectCoalescingSendsOne(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(8), {Kind: Compute}}},
		func(c *Config) { c.PerfectCoalescing = true })
	h.run(0, 5)
	if len(h.injected) != 1 {
		t.Fatalf("injected %d, want 1", len(h.injected))
	}
}

func TestL1HitNeedsNoRequest(t *testing.T) {
	prog := Program{
		divergentLoad(1),
		{Kind: Load, Addrs: []uint64{0}}, // same line as first lane
		{Kind: Compute},
	}
	h := newHarness([]Program{prog})
	h.run(0, 3)
	if len(h.injected) != 1 {
		t.Fatalf("first load injected %d", len(h.injected))
	}
	h.responses = append(h.responses, h.injected[0])
	h.run(3, 20)
	if !h.sm.Done() {
		t.Fatal("second load (L1 hit) blocked the warp")
	}
	if len(h.injected) != 1 {
		t.Fatalf("L1 hit sent a request (total %d)", len(h.injected))
	}
}

func TestLastInChannelTagging(t *testing.T) {
	// 4 divergent lines: channels may repeat; exactly one request per
	// distinct channel must carry the tag, and it must be the last sent
	// to that channel.
	h := newHarness([]Program{{divergentLoad(6)}})
	h.run(0, 10)
	lastIdx := map[int]int{}
	for i, r := range h.injected {
		lastIdx[r.Channel] = i
	}
	for i, r := range h.injected {
		want := lastIdx[r.Channel] == i
		if r.LastInChannel != want {
			t.Fatalf("request %d (ch %d): tag=%v want %v", i, r.Channel, r.LastInChannel, want)
		}
	}
}

func TestMSHRMergeAcrossWarps(t *testing.T) {
	// Two warps load the same line: one request, both block, both wake.
	same := Insn{Kind: Load, Addrs: []uint64{0x123400}}
	h := newHarness([]Program{{same}, {same}})
	h.run(0, 5)
	var real []*memreq.Request
	credits := 0
	for _, r := range h.injected {
		if r.CreditOnly {
			credits++
		} else {
			real = append(real, r)
		}
	}
	if len(real) != 1 {
		t.Fatalf("injected %d real requests, want 1 (MSHR merge)", len(real))
	}
	// The merged warp's tagged request became a credit marker.
	if credits != 1 {
		t.Fatalf("credits = %d, want 1", credits)
	}
	h.responses = append(h.responses, real[0])
	h.run(5, 10)
	if !h.sm.Done() {
		t.Fatal("merged warp not woken by carrier fill")
	}
}

func TestCreditMarkerOnMergedTag(t *testing.T) {
	// Warp 0 fetches lines A,B. Warp 1 loads C (other channel) then B:
	// if warp 1's tagged request for B merges into warp 0's MSHR, a
	// credit marker must be emitted to B's channel.
	lineA := uint64(0x100000)
	lineB := uint64(0x200000)
	m := addrmap.New(6, 16)
	chB := m.Decode(lineB).Channel
	// find a lineC on a different channel
	lineC := uint64(0x300000)
	for m.Decode(lineC).Channel == chB {
		lineC += 128
	}
	progs := []Program{
		{{Kind: Load, Addrs: []uint64{lineA, lineB}}},
		{{Kind: Load, Addrs: []uint64{lineC, lineB}}},
	}
	h := newHarness(progs)
	h.run(0, 10)
	credits := 0
	sawB := 0
	for _, r := range h.injected {
		if r.CreditOnly {
			credits++
			if r.Channel != chB {
				t.Fatalf("credit to channel %d, want %d", r.Channel, chB)
			}
			if !r.Group.Valid() || r.Group.Warp != 1 {
				t.Fatalf("credit group %v", r.Group)
			}
		}
		if r.Addr == lineB && !r.CreditOnly {
			sawB++
		}
	}
	if sawB != 1 {
		t.Fatalf("line B requested %d times, want 1", sawB)
	}
	if credits != 1 {
		t.Fatalf("credits = %d, want 1 (warp 1's tagged B merged)", credits)
	}
}

func TestStoresDontBlock(t *testing.T) {
	st := Insn{Kind: Store, Addrs: []uint64{0x1000, 0x90000}}
	h := newHarness([]Program{{st, {Kind: Compute}}})
	h.run(0, 10)
	if !h.sm.Done() {
		t.Fatal("store blocked the warp")
	}
	writes := 0
	for _, r := range h.injected {
		if r.Kind == memreq.Write {
			writes++
			if r.Group.Valid() {
				t.Fatal("store carries a warp-group")
			}
		}
	}
	if writes != 2 {
		t.Fatalf("writes = %d", writes)
	}
}

func TestInjectBackpressureRetries(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(2), {Kind: Compute}}})
	h.reject = true
	h.run(0, 5)
	if len(h.injected) != 0 {
		t.Fatal("injected despite rejection")
	}
	h.reject = false
	h.run(5, 10)
	if len(h.injected) != 2 {
		t.Fatalf("injected %d after backpressure lifted", len(h.injected))
	}
	h.responses = append(h.responses, h.injected...)
	h.run(10, 20)
	if !h.sm.Done() {
		t.Fatal("warp stuck")
	}
}

func TestGTOPrefersSameWarp(t *testing.T) {
	progs := []Program{
		{{Kind: Compute}, {Kind: Compute}, {Kind: Compute}},
		{{Kind: Compute}, {Kind: Compute}, {Kind: Compute}},
	}
	h := newHarness(progs)
	// With greedy-then-oldest and 1-tick compute latency, warp 0 runs to
	// completion before warp 1 issues.
	h.run(0, 3)
	if h.sm.Warps()[0].Issued != 3 || h.sm.Warps()[1].Issued != 0 {
		t.Fatalf("issued: w0=%d w1=%d (greedy broken)",
			h.sm.Warps()[0].Issued, h.sm.Warps()[1].Issued)
	}
	h.run(3, 6)
	if !h.sm.Done() {
		t.Fatal("warps not done")
	}
}

func TestCollectorSeesLoads(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(4), {Kind: Compute}}})
	h.run(0, 6)
	h.responses = append(h.responses, h.injected...)
	h.run(6, 20)
	sum := h.col.Summarize()
	if sum.Loads != 1 || sum.ReqsPerLoad != 4 || sum.MultiReqFrac != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if h.col.Outstanding() != 0 {
		t.Fatalf("outstanding groups %d", h.col.Outstanding())
	}
	if len(h.col.Done()) != 1 {
		t.Fatalf("done groups %d", len(h.col.Done()))
	}
}

func TestEmptyProgramIsDone(t *testing.T) {
	h := newHarness([]Program{{}})
	if !h.sm.Done() {
		t.Fatal("empty program not done")
	}
}

func TestGroupChannelsAnnotated(t *testing.T) {
	h := newHarness([]Program{{divergentLoad(6)}})
	h.run(0, 10)
	chans := map[int]bool{}
	for _, r := range h.injected {
		chans[r.Channel] = true
	}
	for _, r := range h.injected {
		if int(r.GroupChannels) != len(chans) {
			t.Fatalf("GroupChannels=%d, want %d", r.GroupChannels, len(chans))
		}
	}
}

func TestStoreInvalidatesL1(t *testing.T) {
	line := uint64(0x4000)
	prog := Program{
		{Kind: Load, Addrs: []uint64{line}},
		{Kind: Store, Addrs: []uint64{line}},
		{Kind: Load, Addrs: []uint64{line}}, // must miss again after the store
	}
	h := newHarness([]Program{prog})
	h.run(0, 3)
	h.responses = append(h.responses, h.injected[0])
	h.run(3, 30)
	reads := 0
	for _, r := range h.injected {
		if r.Kind == memreq.Read && !r.CreditOnly {
			reads++
		}
	}
	if reads != 2 {
		t.Fatalf("reads = %d, want 2 (write-through store must invalidate L1)", reads)
	}
}
