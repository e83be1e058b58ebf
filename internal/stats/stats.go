// Package stats collects the per-warp-load measurements behind every
// figure of the paper: coalescing efficiency (Fig 2), main-memory latency
// divergence and controllers touched (Figs 3, 10), effective memory latency
// (Fig 9), and the aggregate run metrics.
package stats

import (
	"sort"

	"dramlat/internal/memreq"
)

// GroupRec tracks one dynamic warp-load from issue to the return of its
// last response.
type GroupRec struct {
	ID        memreq.GroupID
	IssueTick int64

	// Lines is the number of memory requests after coalescing (Fig 2).
	Lines int
	// Sent is the number of requests that missed L1 and entered the
	// memory system (including those later filtered by the L2).
	Sent int
	// MCArrived is the number of requests that reached a DRAM memory
	// controller's read queue.
	MCArrived int
	// Channels is the set of memory controllers touched (Fig 3).
	Channels ChannelSet

	// DRAM service window (Figs 3, 10).
	FirstDRAMDone int64
	LastDRAMDone  int64
	DRAMDone      int

	// SM-side response window. FirstResp/LastResp give the effective
	// memory latency (Fig 9) and the warp's unblock time.
	FirstResp int64
	LastResp  int64
	RespSeen  int

	Completed bool
}

// Collector aggregates GroupRecs for one simulation run. It is not safe
// for concurrent use.
type Collector struct {
	groups map[memreq.GroupID]*GroupRec
	done   []*GroupRec
	// recs is the chunk new records are carved from: one allocation per
	// recChunk records instead of one per warp-load. A full chunk is
	// replaced, never grown, so handed-out *GroupRec pointers stay valid.
	recs []GroupRec

	// TotalLoads counts every warp-load issued, including fully
	// L1-resident ones.
	TotalLoads int64
	// MultiReqLoads counts loads producing more than one request after
	// coalescing (the black bar of Fig 2).
	MultiReqLoads int64
	// TotalLines sums post-coalescing requests over all loads.
	TotalLines int64
	// Stores and StoreLines mirror the above for stores.
	Stores     int64
	StoreLines int64
}

// recChunk is the number of GroupRecs per chunk (about 30 KB).
const recChunk = 256

// newRec returns a zeroed record from the current chunk.
func (c *Collector) newRec() *GroupRec {
	if len(c.recs) == cap(c.recs) {
		c.recs = make([]GroupRec, 0, recChunk)
	}
	c.recs = c.recs[:len(c.recs)+1]
	return &c.recs[len(c.recs)-1]
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{groups: make(map[memreq.GroupID]*GroupRec)}
}

// OnLoadIssue records a warp-load leaving the coalescer. sent is the
// number of requests entering the memory system (L1 misses).
func (c *Collector) OnLoadIssue(id memreq.GroupID, now int64, lines, sent int) {
	c.TotalLoads++
	c.TotalLines += int64(lines)
	if lines > 1 {
		c.MultiReqLoads++
	}
	if sent == 0 {
		return // fully L1-resident; nothing further to track
	}
	g := c.newRec()
	*g = GroupRec{
		ID: id, IssueTick: now, Lines: lines, Sent: sent,
		FirstDRAMDone: -1, FirstResp: -1,
	}
	c.groups[id] = g
}

// OnStoreIssue records a store leaving the coalescer.
func (c *Collector) OnStoreIssue(lines int) {
	c.Stores++
	c.StoreLines += int64(lines)
}

// OnMCArrive records a request of the group entering controller ch's read
// queue.
func (c *Collector) OnMCArrive(id memreq.GroupID, ch int) {
	if g, ok := c.groups[id]; ok {
		g.MCArrived++
		g.Channels.Add(ch)
	}
}

// OnDRAMDone records DRAM finishing one of the group's requests.
func (c *Collector) OnDRAMDone(id memreq.GroupID, now int64) {
	g, ok := c.groups[id]
	if !ok {
		return
	}
	if g.FirstDRAMDone < 0 {
		g.FirstDRAMDone = now
	}
	if now > g.LastDRAMDone {
		g.LastDRAMDone = now
	}
	g.DRAMDone++
}

// OnResp records one response reaching the SM; when the expected count is
// reached the group is finalized.
func (c *Collector) OnResp(id memreq.GroupID, now int64) {
	g, ok := c.groups[id]
	if !ok {
		return
	}
	if g.FirstResp < 0 {
		g.FirstResp = now
	}
	if now > g.LastResp {
		g.LastResp = now
	}
	g.RespSeen++
	if g.RespSeen >= g.Sent && !g.Completed {
		g.Completed = true
		c.done = append(c.done, g)
		delete(c.groups, id)
	}
}

// Done returns the finalized group records.
func (c *Collector) Done() []*GroupRec { return c.done }

// Mark returns the current length of the done slice, for DoneSince.
func (c *Collector) Mark() int { return len(c.done) }

// DoneSince returns the groups finalized after an earlier Mark — the
// sampled engine's per-window calibration sample.
func (c *Collector) DoneSince(mark int) []*GroupRec {
	if mark < 0 || mark > len(c.done) {
		return nil
	}
	return c.done[mark:]
}

// AddSynthetic appends a copy of g to the done records. The sampled
// engine uses it to stand in for the warp-loads a fast-forward region
// skipped: whole records resampled from the preceding measurement
// window, timestamps shifted into the modeled interval, so every
// downstream consumer (Summarize, Percentile, the façade's gap
// histogram) sees them exactly like detailed groups.
func (c *Collector) AddSynthetic(g GroupRec) {
	g.Completed = true
	rec := c.newRec()
	*rec = g
	c.done = append(c.done, rec)
}

// AddModeled bulk-adds the coalescer-level counters for loads and
// stores a fast-forward region skipped, scaled from the preceding
// window's rates. Only the aggregate counters move; no group records
// are created (AddSynthetic covers those).
func (c *Collector) AddModeled(loads, multiReq, lines, stores, storeLines int64) {
	c.TotalLoads += loads
	c.MultiReqLoads += multiReq
	c.TotalLines += lines
	c.Stores += stores
	c.StoreLines += storeLines
}

// Outstanding returns the number of unfinalized groups (should be zero at
// the end of a drained run).
func (c *Collector) Outstanding() int { return len(c.groups) }

// Summary is the digest of one run's warp-load behaviour.
type Summary struct {
	Loads         int64
	MultiReqFrac  float64 // Fig 2 black bar
	ReqsPerLoad   float64 // Fig 2 line (5.9 avg in the paper)
	AvgMCsTouched float64 // Fig 3 (2.5 avg)
	// DivergenceGap is the mean (last - first) DRAM service gap in ticks
	// over groups with >= 2 DRAM-serviced requests (Figs 3, 10).
	DivergenceGap float64
	// LastOverFirst is the mean ratio of last-request to first-request
	// latency (issue -> response) over multi-response groups (~1.6x in
	// Fig 3).
	LastOverFirst float64
	// EffectiveLatency is the mean (last response - issue) over groups
	// that touched the memory system (Fig 9).
	EffectiveLatency float64
	// MemGroups is the number of groups that entered the memory system.
	MemGroups int64
}

// Gaps returns the DRAM divergence gaps of the finished groups with >= 2
// DRAM-serviced requests, sorted ascending.
func (c *Collector) Gaps() []float64 {
	var gaps []float64
	for _, g := range c.done {
		if g.DRAMDone >= 2 {
			gaps = append(gaps, float64(g.LastDRAMDone-g.FirstDRAMDone))
		}
	}
	sort.Float64s(gaps)
	return gaps
}

// PercentileOf returns the p-th percentile (0..100) of a sorted sample,
// linearly interpolated between the two closest ranks (so e.g. p50 of
// {10, 20} is 15). p is clamped to [0, 100]; an empty sample gives 0.
// Whole-run, per-window and trace-derived gap percentiles all use it, so
// they are directly comparable.
func PercentileOf(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// Summarize computes the digest.
func (c *Collector) Summarize() Summary {
	var s Summary
	s.Loads = c.TotalLoads
	if c.TotalLoads > 0 {
		s.MultiReqFrac = float64(c.MultiReqLoads) / float64(c.TotalLoads)
		s.ReqsPerLoad = float64(c.TotalLines) / float64(c.TotalLoads)
	}
	var mcSum, gapSum, ratioSum, effSum float64
	var mcN, gapN, ratioN, effN int64
	for _, g := range c.done {
		if g.MCArrived > 0 {
			mcSum += float64(g.Channels.Count())
			mcN++
		}
		if g.DRAMDone >= 2 {
			gapSum += float64(g.LastDRAMDone - g.FirstDRAMDone)
			gapN++
		}
		if g.RespSeen >= 2 && g.FirstResp > g.IssueTick {
			ratioSum += float64(g.LastResp-g.IssueTick) / float64(g.FirstResp-g.IssueTick)
			ratioN++
		}
		if g.RespSeen > 0 {
			effSum += float64(g.LastResp - g.IssueTick)
			effN++
		}
	}
	if mcN > 0 {
		s.AvgMCsTouched = mcSum / float64(mcN)
	}
	if gapN > 0 {
		s.DivergenceGap = gapSum / float64(gapN)
	}
	if ratioN > 0 {
		s.LastOverFirst = ratioSum / float64(ratioN)
	}
	if effN > 0 {
		s.EffectiveLatency = effSum / float64(effN)
	}
	s.MemGroups = effN
	return s
}
