// Package xbar models the crossbar interconnect between the SIMT cores and
// the memory partitions (Section II-B). Its two fidelity-critical
// properties, both from Section IV-B2:
//
//   - requests from a single SM are never re-ordered (this is what makes
//     the warp sorter's "last request to this channel" tag a reliable
//     group-complete signal), and
//   - requests from different SMs interleave at each partition port (this
//     is what defeats plain FCFS scheduling, Section III-A).
//
// A NoInterleave mode services one SM's queue to exhaustion before moving
// on — the interconnect assumed by the WAFCFS comparator (Yuan et al.
// [51], Section VI-C2).
//
// An Xbar is not safe for concurrent use: every engine drives it from one
// goroutine in component order, so plain field updates keep the wake
// bounds and counters exact.
package xbar

import (
	"math/bits"

	"dramlat/internal/memreq"
)

// never is the wakeup-contract sentinel (see dram.Never).
const never int64 = 1 << 62

type entry struct {
	req     *memreq.Request
	readyAt int64
}

// ring is a reusable FIFO of entries: a power-of-two circular buffer that
// grows on demand and never re-allocates on steady-state push/pop churn
// (the old slice queues re-sliced on pop and re-allocated on append,
// churning the allocator on the hottest path in the simulator).
type ring struct {
	buf  []entry
	head int
	n    int
}

func (r *ring) len() int { return r.n }

func (r *ring) front() *entry {
	return &r.buf[r.head]
}

func (r *ring) push(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *ring) pop() entry {
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *ring) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]entry, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// Xbar is the SM <-> partition crossbar.
type Xbar struct {
	NumSM, NumPart int
	// Latency is the one-way pipe latency in ticks.
	Latency int64
	// CapPerQueue bounds each (SM,partition) request FIFO; injection
	// fails (and the SM retries) when full.
	CapPerQueue int
	// NoInterleave makes each partition port drain one SM completely
	// before rotating (WAFCFS interconnect).
	NoInterleave bool

	toPart [][]ring // [sm][part] request FIFOs
	toSM   [][]ring // [part][sm] response FIFOs
	rrReq  []int    // per-partition SM rotation
	curSM  []int    // per-partition sticky SM (NoInterleave)
	rrResp []int    // per-SM partition rotation

	// queued has one bit per SM whose FIFO toward a partition is
	// non-empty: partition p's mask is queued[p*words : (p+1)*words],
	// bit sm%64 of word sm/64. Inject sets the bit and a PopPart that
	// empties the FIFO clears it, so a port visits only the SMs that
	// hold work.
	queued []uint64
	words  int
	// partWake is a never-late lower bound on the earliest head readyAt
	// of the FIFOs toward a partition: min-updated on Inject, set to
	// the exact earliest head by a scan that finds nothing matured. A
	// port returns at once before it, so one whose traffic is still in
	// flight costs O(1) per tick.
	partWake []int64

	// respWake is a lower bound on the earliest head readyAt of the
	// queues toward an SM: min-updated on insert (exact when the queue
	// was empty), recomputed from the true heads on every PopResponse,
	// and lowered when a pop frees a slot in one of the SM's full request
	// FIFOs (see PopPart). It is the stepper's SM wakeup; a stale-early
	// bound only costs a spurious visit.
	respWake []int64

	Injected  int64
	Rejected  int64
	Responses int64
}

// New builds a crossbar.
func New(numSM, numPart int, latency int64, capPerQueue int) *Xbar {
	words := (numSM + 63) / 64
	x := &Xbar{
		NumSM: numSM, NumPart: numPart,
		Latency: latency, CapPerQueue: capPerQueue,
		toPart:   make([][]ring, numSM),
		toSM:     make([][]ring, numPart),
		rrReq:    make([]int, numPart),
		curSM:    make([]int, numPart),
		rrResp:   make([]int, numSM),
		respWake: make([]int64, numSM),
		queued:   make([]uint64, numPart*words),
		words:    words,
		partWake: make([]int64, numPart),
	}
	for i := range x.respWake {
		x.respWake[i] = never
	}
	for i := range x.partWake {
		x.partWake[i] = never
	}
	for i := range x.toPart {
		x.toPart[i] = make([]ring, numPart)
	}
	for i := range x.toSM {
		x.toSM[i] = make([]ring, numSM)
	}
	for i := range x.curSM {
		x.curSM[i] = -1
	}
	return x
}

// Inject offers a request from SM sm toward its partition (req.Channel).
// It returns false when the queue is full.
func (x *Xbar) Inject(sm int, req *memreq.Request, now int64) bool {
	q := &x.toPart[sm][req.Channel]
	if q.len() >= x.CapPerQueue {
		x.Rejected++
		return false
	}
	t := now + x.Latency
	q.push(entry{req, t})
	x.Injected++
	part := req.Channel
	x.queued[part*x.words+sm>>6] |= 1 << uint(sm&63)
	if t < x.partWake[part] {
		x.partWake[part] = t
	}
	return true
}

// PopPart removes and returns the next request deliverable to partition
// part at tick now, or nil when nothing is ready. Arbitration is
// round-robin across SMs (or sticky per-SM in NoInterleave mode); each
// (SM, partition) FIFO preserves order. Popping from a full (SM,
// partition) FIFO frees the slot that SM's replay head may be blocked
// on, so it lowers the SM's crossbar wake (RespWake) to now+1: SMs tick
// before partitions, so that is the first tick the SM's injection retry
// could succeed.
func (x *Xbar) PopPart(part int, now int64) *memreq.Request {
	sm := x.arbitrate(part, now)
	if sm < 0 {
		return nil
	}
	q := &x.toPart[sm][part]
	if q.len() >= x.CapPerQueue {
		x.lowerRespWake(sm, now+1)
	}
	e := q.pop()
	if q.len() == 0 {
		x.queued[part*x.words+sm>>6] &^= 1 << uint(sm&63)
	}
	return e.req
}

// arbitrate returns the SM whose matured FIFO head partition part takes
// at tick now, or -1, advancing the port's arbitration state.
func (x *Xbar) arbitrate(part int, now int64) int {
	if x.NoInterleave {
		// Stick with the current SM while it has anything queued, even
		// when its head has not matured yet.
		sm := x.curSM[part]
		if sm < 0 || x.toPart[sm][part].len() == 0 {
			// Every queued head has matured by tick never, so this
			// finds the next SM with anything queued.
			if sm, _ = x.scan(part, never); sm >= 0 {
				x.rrReq[part] = (sm + 1) % x.NumSM
			}
			x.curSM[part] = sm
		}
		if sm < 0 || x.toPart[sm][part].front().readyAt > now {
			return -1
		}
		return sm
	}
	// No head toward the port matures before partWake. rrReq only
	// moves on a pop, so a scan that finds nothing ready leaves the
	// arbitration state untouched and just records the exact bound.
	if now < x.partWake[part] {
		return -1
	}
	sm, wake := x.scan(part, now)
	if sm < 0 {
		x.partWake[part] = wake
		return -1
	}
	x.rrReq[part] = (sm + 1) % x.NumSM
	return sm
}

// scan visits the SMs with requests queued toward partition part in
// round-robin order from rrReq (the set bits of the port's queued mask,
// from rrReq up, then wrapping from 0) and returns the first whose FIFO
// head has matured by tick by. When none has, it returns -1 and the
// earliest head readyAt it saw (never when nothing is queued).
func (x *Xbar) scan(part int, by int64) (sm int, wake int64) {
	wake = never
	mask := x.queued[part*x.words : (part+1)*x.words]
	from := x.rrReq[part]
	for _, span := range [2][2]int{{from, x.NumSM}, {0, from}} {
		lo, hi := span[0], span[1]
		for w := lo >> 6; w<<6 < hi; w++ {
			set := mask[w]
			if w == lo>>6 {
				set &^= 1<<uint(lo&63) - 1
			}
			if n := hi - w<<6; n < 64 {
				set &= 1<<uint(n) - 1
			}
			for ; set != 0; set &= set - 1 {
				s := w<<6 + bits.TrailingZeros64(set)
				t := x.toPart[s][part].front().readyAt
				if t <= by {
					return s, wake
				}
				wake = min(wake, t)
			}
		}
	}
	return -1, wake
}

func (x *Xbar) recomputeRespWake(sm int) {
	w := never
	for part := 0; part < x.NumPart; part++ {
		if q := &x.toSM[part][sm]; q.len() > 0 && q.front().readyAt < w {
			w = q.front().readyAt
		}
	}
	x.respWake[sm] = w
}

// RespWake returns the earliest tick at which SM sm could see crossbar
// input: PopResponse(sm, ·) returning a response, or an injection into
// one of its request FIFOs succeeding after PopPart freed a slot in it.
// It is never when neither can happen. The bound may be stale-early
// (≤ now with no deliverable head), which only costs a spurious SM
// visit, never a missed one; the SM's next PopResponse restores the
// response-head bound.
func (x *Xbar) RespWake(sm int) int64 { return x.respWake[sm] }

// MinRespWake returns min over SMs of RespWake — the earliest tick any
// SM could receive a response or a freed request slot. It scans every
// SM, so it is for diagnostics (the stall dump), not the tick loop.
func (x *Xbar) MinRespWake() int64 {
	m := never
	for _, w := range x.respWake {
		if w < m {
			m = w
		}
	}
	return m
}

// Respond sends a response from partition part back to the request's SM.
// The response path is modeled with latency but without back-pressure (the
// SM drains one response per tick, far above the DRAM return rate).
func (x *Xbar) Respond(part int, req *memreq.Request, now int64) {
	sm := int(req.Group.SM)
	if !req.Group.Valid() {
		sm = 0
	}
	x.RespondTo(part, sm, req, now)
}

// RespondTo sends a response to an explicit SM (for ungrouped traffic).
func (x *Xbar) RespondTo(part, sm int, req *memreq.Request, now int64) {
	t := now + x.Latency
	x.toSM[part][sm].push(entry{req, t})
	x.Responses++
	x.lowerRespWake(sm, t)
}

// lowerRespWake min-updates SM sm's crossbar wake with tick t.
func (x *Xbar) lowerRespWake(sm int, t int64) {
	if t < x.respWake[sm] {
		x.respWake[sm] = t
	}
}

// PopResponse returns the next response for SM sm at tick now, or nil.
func (x *Xbar) PopResponse(sm int, now int64) *memreq.Request {
	for i := 0; i < x.NumPart; i++ {
		part := (x.rrResp[sm] + i) % x.NumPart
		q := &x.toSM[part][sm]
		if q.len() == 0 || q.front().readyAt > now {
			continue
		}
		e := q.pop()
		x.rrResp[sm] = (part + 1) % x.NumPart
		x.recomputeRespWake(sm)
		return e.req
	}
	x.recomputeRespWake(sm)
	return nil
}

// Empty reports whether the crossbar holds no traffic in either direction.
func (x *Xbar) Empty() bool {
	for _, w := range x.queued {
		if w != 0 {
			return false
		}
	}
	for part := range x.toSM {
		for sm := range x.toSM[part] {
			if x.toSM[part][sm].len() > 0 {
				return false
			}
		}
	}
	return true
}
