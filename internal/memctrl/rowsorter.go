package memctrl

import (
	"math/bits"

	"dramlat/internal/dram"
	"dramlat/internal/memreq"
)

// stream is one row-hit stream: the FIFO of pending requests to a single
// <bank,row> tuple (one Row Sorter entry, Section II-C).
type stream struct {
	bank, row int
	reqs      []*memreq.Request
	created   int64 // arrival tick of the first request (stream age)
}

func (s *stream) oldestArrive() int64 {
	if len(s.reqs) == 0 {
		return 1 << 62
	}
	return s.reqs[0].Arrive
}

// RowSorter groups pending read requests into row-hit streams per bank. It
// is the baseline GMC's sorting structure and is reused by SBWAS and ATLAS.
type RowSorter struct {
	// perBank holds each bank's streams in creation order, at most one
	// per row: a bank's streams are few (its pending rows), so StreamFor
	// scans them.
	perBank [][]*stream
	// pending has bit b set exactly when perBank[b] is non-empty, so the
	// bank round-robin of GMC and SBWAS visits only banks that hold
	// reads. One word covers the 64 banks a dram.Channel holds at most.
	pending uint64
	count   int
	// free recycles retired stream entries (and their request-slice
	// capacity): the sorter churns through one entry per row locality
	// burst, so the steady state reuses rather than allocates. No
	// scheduler retains a *stream across calls (all lookups re-resolve
	// through StreamFor/OldestStream), so reuse cannot revive a stale
	// handle.
	free []*stream
}

// NewRowSorter builds a sorter for numBanks banks.
func NewRowSorter(numBanks int) *RowSorter {
	return &RowSorter{perBank: make([][]*stream, numBanks)}
}

// Add merges a request into its stream (creating the stream if needed).
func (rs *RowSorter) Add(r *memreq.Request, now int64) {
	s := rs.StreamFor(r.Bank, r.Row)
	if s == nil {
		if n := len(rs.free); n > 0 {
			s = rs.free[n-1]
			rs.free = rs.free[:n-1]
			// The retired entry's capacity tail may still hold pooled
			// request pointers; clear them so the reused entry starts clean.
			reqs := s.reqs[:cap(s.reqs)]
			for i := range reqs {
				reqs[i] = nil
			}
			*s = stream{bank: r.Bank, row: r.Row, created: now, reqs: reqs[:0]}
		} else {
			s = &stream{bank: r.Bank, row: r.Row, created: now}
		}
		rs.perBank[r.Bank] = append(rs.perBank[r.Bank], s)
		rs.pending |= 1 << uint(r.Bank)
	}
	s.reqs = append(s.reqs, r)
	rs.count++
}

// Count returns the number of buffered requests.
func (rs *RowSorter) Count() int { return rs.count }

// StreamFor returns the stream for (bank, row), or nil.
func (rs *RowSorter) StreamFor(bank, row int) *stream {
	for _, s := range rs.perBank[bank] {
		if s.row == row {
			return s
		}
	}
	return nil
}

// OldestStream returns the bank's stream with the oldest head request.
func (rs *RowSorter) OldestStream(bank int) *stream {
	var best *stream
	for _, s := range rs.perBank[bank] {
		if len(s.reqs) == 0 {
			continue
		}
		if best == nil || s.oldestArrive() < best.oldestArrive() {
			best = s
		}
	}
	return best
}

// PopFrom removes and returns the head request of stream s, retiring the
// stream when it empties.
func (rs *RowSorter) PopFrom(s *stream) *memreq.Request {
	r := s.reqs[0]
	// Shift rather than re-slice: streams are short (one row locality
	// burst), and keeping the slice anchored at its base preserves the
	// capacity for the recycled entry's next life.
	copy(s.reqs, s.reqs[1:])
	s.reqs[len(s.reqs)-1] = nil
	s.reqs = s.reqs[:len(s.reqs)-1]
	rs.count--
	if len(s.reqs) == 0 {
		rs.retire(s)
	}
	return r
}

// pendingFrom returns the pending mask rotated so that bit i stands for
// bank (start+i) % NumBanks: its set bits, lowest first, are the banks
// holding reads in round-robin order from start.
func (rs *RowSorter) pendingFrom(start int) uint64 {
	nb, r := uint(len(rs.perBank)), uint(start)
	return (rs.pending>>r | rs.pending<<(nb-r)) & (^uint64(0) >> (64 - nb))
}

// serveFrom visits the banks holding reads in round-robin order from
// bank start, skipping those whose command queue is full, and returns
// the first read serve yields for a bank, or nil.
func (rs *RowSorter) serveFrom(start int, ch *dram.Channel, serve func(bank int) *memreq.Request) *memreq.Request {
	for m := rs.pendingFrom(start); m != 0; m &= m - 1 {
		bank := start + bits.TrailingZeros64(m)
		if bank >= ch.NumBanks {
			bank -= ch.NumBanks
		}
		if !ch.CanAccept(bank) {
			continue
		}
		if r := serve(bank); r != nil {
			return r
		}
	}
	return nil
}

func (rs *RowSorter) retire(s *stream) {
	rs.free = append(rs.free, s)
	bank := rs.perBank[s.bank]
	for i, e := range bank {
		if e == s {
			rs.perBank[s.bank] = append(bank[:i], bank[i+1:]...)
			if len(bank) == 1 {
				rs.pending &^= 1 << uint(s.bank)
			}
			return
		}
	}
}
