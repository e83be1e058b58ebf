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
	c.groups[id] = &GroupRec{
		ID: id, IssueTick: now, Lines: lines, Sent: sent,
		FirstDRAMDone: -1, FirstResp: -1,
	}
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
	rec := g
	c.done = append(c.done, &rec)
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

// Percentile returns the p-th percentile (0..100) of the DRAM divergence
// gaps over multi-request groups, linearly interpolated between the two
// closest ranks (so e.g. p50 of {10, 20} is 15, not 10 as the old
// truncating index computed).
func (c *Collector) Percentile(p float64) float64 {
	var gaps []float64
	for _, g := range c.done {
		if g.DRAMDone >= 2 {
			gaps = append(gaps, float64(g.LastDRAMDone-g.FirstDRAMDone))
		}
	}
	n := len(gaps)
	if n == 0 {
		return 0
	}
	sort.Float64s(gaps)
	if p <= 0 {
		return gaps[0]
	}
	if p >= 100 {
		return gaps[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo+1 >= n {
		return gaps[n-1]
	}
	return gaps[lo] + (rank-float64(lo))*(gaps[lo+1]-gaps[lo])
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
