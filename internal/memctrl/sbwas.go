package memctrl

import "dramlat/internal/memreq"

// SBWAS reproduces the single-bank warp-aware scheduler of Lakshminarayana
// et al. [32] as characterized in Section VI-C1 of the paper. Within each
// bank it chooses between (a) the oldest row-hit request and (b) the
// request of the warp with the fewest outstanding requests at this
// controller, biased by the profiled parameter alpha. The policy applies
// per bank only (no cross-bank or cross-channel grouping), and its
// controller uses the Interleaved write policy (writes compete with reads,
// no batch drain) — both fidelity points the paper calls out.
//
// The original potential function is a fluid-model construction; we
// reproduce its operational behaviour with the same knob: alpha in
// {0.25, 0.5, 0.75} sets how close to completion a warp must be before its
// row-miss request preempts row hits. Higher alpha favors nearly-complete
// warps more aggressively.
type SBWAS struct {
	ctl   *Controller
	rs    *RowSorter
	Alpha float64

	// outstanding counts buffered reads per warp at this controller.
	outstanding map[warpKey]int
	rrBank      int
}

type warpKey struct {
	sm, warp uint16
}

// NewSBWAS returns the comparator scheduler with the given alpha.
func NewSBWAS(alpha float64) *SBWAS {
	return &SBWAS{Alpha: alpha, outstanding: make(map[warpKey]int)}
}

// Name implements Scheduler.
func (s *SBWAS) Name() string { return "sbwas" }

// Attach implements Scheduler.
func (s *SBWAS) Attach(ctl *Controller) {
	s.ctl = ctl
	s.rs = NewRowSorter(ctl.Chan.NumBanks)
}

// OnEnqueue implements Scheduler.
func (s *SBWAS) OnEnqueue(r *memreq.Request, now int64) {
	s.rs.Add(r, now)
	if r.Group.Valid() {
		s.outstanding[warpKey{r.Group.SM, r.Group.Warp}]++
	}
}

// GroupComplete implements Scheduler.
func (s *SBWAS) GroupComplete(memreq.GroupID, int64) {}

// Pending implements Scheduler.
func (s *SBWAS) Pending() int { return s.rs.Count() }

// shortJobCutoff converts alpha into the maximum number of outstanding
// requests a warp may have for its request to preempt a row-hit stream.
func (s *SBWAS) shortJobCutoff() int {
	switch {
	case s.Alpha >= 0.75:
		return 3
	case s.Alpha >= 0.5:
		return 2
	default:
		return 1
	}
}

// NextRead implements Scheduler.
func (s *SBWAS) NextRead(int64) *memreq.Request {
	cutoff := s.shortJobCutoff()
	return s.rs.serveFrom(s.rrBank, s.ctl.Chan, func(bank int) *memreq.Request { return s.serve(bank, cutoff) })
}

// serve moves the round-robin past bank and pops the bank's pick: the
// short-job candidate when it qualifies, else the row-hit stream's head,
// else the oldest stream's head. It returns nil when the bank has none.
func (s *SBWAS) serve(bank, cutoff int) *memreq.Request {
	s.rrBank = (bank + 1) % s.ctl.Chan.NumBanks

	hitStream := s.rs.StreamFor(bank, s.ctl.Chan.SchedRow(bank))

	// Candidate (b): the request in this bank belonging to the
	// warp with the fewest outstanding requests.
	var short *stream
	shortCount := 1 << 30
	var shortIdx int
	for _, st := range s.rs.perBank[bank] {
		for idx, r := range st.reqs {
			if !r.Group.Valid() {
				continue
			}
			n := s.outstanding[warpKey{r.Group.SM, r.Group.Warp}]
			if n < shortCount {
				shortCount, short, shortIdx = n, st, idx
			}
		}
	}

	if short != nil && shortCount <= cutoff && (hitStream == nil || short != hitStream) {
		r := s.removeAt(short, shortIdx)
		s.note(r)
		return r
	}
	if hitStream != nil {
		r := s.rs.PopFrom(hitStream)
		s.note(r)
		return r
	}
	if oldest := s.rs.OldestStream(bank); oldest != nil {
		r := s.rs.PopFrom(oldest)
		s.note(r)
		return r
	}
	return nil
}

func (s *SBWAS) note(r *memreq.Request) {
	if r.Group.Valid() {
		k := warpKey{r.Group.SM, r.Group.Warp}
		if s.outstanding[k] > 0 {
			s.outstanding[k]--
		}
		if s.outstanding[k] == 0 {
			delete(s.outstanding, k)
		}
	}
}

func (s *SBWAS) removeAt(st *stream, idx int) *memreq.Request {
	r := st.reqs[idx]
	st.reqs = append(st.reqs[:idx], st.reqs[idx+1:]...)
	s.rs.count--
	if len(st.reqs) == 0 {
		s.rs.retire(st)
	}
	return r
}
