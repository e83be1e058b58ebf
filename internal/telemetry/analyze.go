package telemetry

import (
	"fmt"
	"sort"

	"dramlat/internal/memreq"
	"dramlat/internal/stats"
)

// ReqTrace is the reconstructed life of one DRAM read request.
type ReqTrace struct {
	ID      uint64
	Channel int
	Bank    int
	Row     int
	Enq     int64   // entered the controller read queue (-1 unseen)
	Deq     int64   // dispatched to the DRAM command queues (-1 unseen)
	Bursts  []int64 // RD command ticks
	Done    int64   // data transfer finished (-1 unseen)
	Acts    []int64 // ACT commands on (channel, bank) between Deq and Done
}

// GroupTrace is the reconstructed life of one warp-group.
type GroupTrace struct {
	ID      memreq.GroupID
	Issue   int64 // -1 when the issue event is missing (truncated trace)
	Unblock int64 // -1 when still blocked at trace end
	Lines   int
	Sent    int
	// Dones are the DRAM completion ticks credited to this group, in
	// timestamp order — exactly the collector's OnDRAMDone inputs, so
	// Gap() matches stats.GroupRec's divergence window.
	Dones []int64
	Reqs  []*ReqTrace // requests that reached a controller, enq order
}

// Gap returns the DRAM divergence gap (last − first completion), or -1
// for groups with fewer than two DRAM-serviced requests.
func (g *GroupTrace) Gap() int64 {
	if len(g.Dones) < 2 {
		return -1
	}
	return g.Dones[len(g.Dones)-1] - g.Dones[0]
}

// Channels returns the number of distinct channels the group's traced
// requests reached.
func (g *GroupTrace) Channels() int {
	seen := map[int]bool{}
	for _, r := range g.Reqs {
		seen[r.Channel] = true
	}
	return len(seen)
}

// Analysis is the per-group reconstruction of an event stream.
type Analysis struct {
	Groups []*GroupTrace // in first-appearance order

	byID  map[memreq.GroupID]*GroupTrace
	byReq map[uint64]*ReqTrace
}

// Analyze reconstructs warp-group and request lifetimes from an event
// stream (any order; it sorts a copy first).
func Analyze(events []Event) *Analysis {
	sorted := append([]Event(nil), events...)
	SortEvents(sorted)
	a := &Analysis{
		byID:  make(map[memreq.GroupID]*GroupTrace),
		byReq: make(map[uint64]*ReqTrace),
	}
	// inflight indexes dispatched-but-incomplete requests per (ch, bank)
	// so ACT attribution does not scan every request.
	inflight := map[[2]int][]*ReqTrace{}
	group := func(id memreq.GroupID) *GroupTrace {
		g, ok := a.byID[id]
		if !ok {
			g = &GroupTrace{ID: id, Issue: -1, Unblock: -1}
			a.byID[id] = g
			a.Groups = append(a.Groups, g)
		}
		return g
	}
	for _, e := range sorted {
		id := e.GroupID()
		switch e.Kind {
		case EvLoadIssue:
			g := group(id)
			g.Issue, g.Lines, g.Sent = e.Tick, int(e.A), int(e.B)
		case EvLoadUnblock:
			group(id).Unblock = e.Tick
		case EvEnqRead:
			if !id.Valid() {
				continue // ungrouped read (none today, but be safe)
			}
			r := &ReqTrace{
				ID: e.Req, Channel: int(e.Channel), Bank: int(e.Bank),
				Row: int(e.Row), Enq: e.Tick, Deq: -1, Done: -1,
			}
			a.byReq[e.Req] = r
			g := group(id)
			g.Reqs = append(g.Reqs, r)
		case EvDeqRead:
			if r := a.byReq[e.Req]; r != nil {
				r.Deq = e.Tick
				k := [2]int{r.Channel, r.Bank}
				inflight[k] = append(inflight[k], r)
			}
		case EvRD:
			if r := a.byReq[e.Req]; r != nil {
				r.Bursts = append(r.Bursts, e.Tick)
			}
		case EvACT:
			// Attribute the activate to the dispatched-but-incomplete
			// requests waiting on this (channel, bank) row: it is the
			// row open they waited for. Completed entries compact away.
			k := [2]int{int(e.Channel), int(e.Bank)}
			live := inflight[k][:0]
			for _, r := range inflight[k] {
				if r.Done >= 0 {
					continue
				}
				live = append(live, r)
				if int32(r.Row) == e.Row {
					r.Acts = append(r.Acts, e.Tick)
				}
			}
			inflight[k] = live
		case EvDone:
			if !id.Valid() {
				continue
			}
			g := group(id)
			g.Dones = append(g.Dones, e.Tick)
			if r := a.byReq[e.Req]; r != nil && r.Done < 0 {
				r.Done = e.Tick
			}
		}
	}
	return a
}

// DivergenceGap returns the mean DRAM divergence gap over groups with at
// least two DRAM completions — the trace-side reproduction of
// stats.Summary.DivergenceGap (they agree on drained runs, where every
// traced group finalizes).
func (a *Analysis) DivergenceGap() float64 {
	var sum float64
	var n int64
	for _, g := range a.Groups {
		if gap := g.Gap(); gap >= 0 {
			sum += float64(gap)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Gaps returns the sorted divergence gaps of all multi-completion groups.
func (a *Analysis) Gaps() []float64 {
	var out []float64
	for _, g := range a.Groups {
		if gap := g.Gap(); gap >= 0 {
			out = append(out, float64(gap))
		}
	}
	sort.Float64s(out)
	return out
}

// Stragglers returns the k groups with the largest divergence gaps,
// largest first.
func (a *Analysis) Stragglers(k int) []*GroupTrace {
	multi := make([]*GroupTrace, 0, len(a.Groups))
	for _, g := range a.Groups {
		if g.Gap() >= 0 {
			multi = append(multi, g)
		}
	}
	sort.SliceStable(multi, func(i, j int) bool { return multi[i].Gap() > multi[j].Gap() })
	if k > len(multi) {
		k = len(multi)
	}
	return multi[:k]
}

// HistBin is one bucket of the divergence-gap histogram.
type HistBin struct {
	Lo, Hi int64 // [Lo, Hi) in ticks; the last bin is open-ended
	Count  int
}

// GapHistogram buckets the divergence gaps into power-of-two bins
// starting at [0,64): the Fig 10 time-gap distribution.
func (a *Analysis) GapHistogram() []HistBin {
	gaps := a.Gaps()
	if len(gaps) == 0 {
		return nil
	}
	maxGap := gaps[len(gaps)-1]
	var bins []HistBin
	lo := int64(0)
	hi := int64(64)
	for {
		bins = append(bins, HistBin{Lo: lo, Hi: hi})
		if float64(hi) > maxGap {
			break
		}
		lo, hi = hi, hi*2
	}
	for _, g := range gaps {
		idx := 0
		for i := range bins {
			if g < float64(bins[i].Hi) {
				idx = i
				break
			}
		}
		bins[idx].Count++
	}
	return bins
}

// GapPercentile returns the p-th percentile (0..100, linearly
// interpolated between ranks) of the divergence-gap distribution.
func (a *Analysis) GapPercentile(p float64) float64 {
	return stats.PercentileOf(a.Gaps(), p)
}

// Summary returns a one-line digest of the analysis for logs.
func (a *Analysis) Summary() string {
	return fmt.Sprintf("%d warp-groups, %d multi-completion, mean gap %.1f ticks",
		len(a.Groups), len(a.Gaps()), a.DivergenceGap())
}
