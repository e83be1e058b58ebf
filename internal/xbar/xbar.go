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

import "dramlat/internal/memreq"

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

	// pendSM/pendRot record, per partition, which SM's head the last
	// successful PeekPart returned and the round-robin rotation PopPart
	// must apply when it consumes it. Keeping the pending pop as flat
	// per-partition state lets PeekPart avoid allocating a pop closure
	// per request on the hottest crossbar path.
	pendSM  []int
	pendRot []int

	// Wakeup bookkeeping for the event-driven system loop. reqWake and
	// respWake are lower bounds on the earliest head readyAt of the
	// queues toward a partition / an SM: min-updated on insert (exact
	// when the queue was empty), recomputed from the true heads on every
	// pop attempt. respWake is also lowered when a pop frees a slot in
	// one of the SM's full request FIFOs (see PopPart). A stale-early
	// bound only costs a spurious visit.
	reqWake  []int64
	respWake []int64
	queuedTo []int // per-partition queued request count (NoInterleave)
	// minReqWake / minRespWake are the exact minima of reqWake / respWake,
	// kept current by the same insert/pop maintenance, so the system loop
	// gets a whole-crossbar wake bound in O(1) per tick.
	minReqWake  int64
	minRespWake int64

	Injected  int64
	Rejected  int64
	Responses int64
}

// New builds a crossbar.
func New(numSM, numPart int, latency int64, capPerQueue int) *Xbar {
	x := &Xbar{
		NumSM: numSM, NumPart: numPart,
		Latency: latency, CapPerQueue: capPerQueue,
		toPart:   make([][]ring, numSM),
		toSM:     make([][]ring, numPart),
		rrReq:    make([]int, numPart),
		curSM:    make([]int, numPart),
		pendSM:   make([]int, numPart),
		pendRot:  make([]int, numPart),
		rrResp:   make([]int, numSM),
		reqWake:  make([]int64, numPart),
		respWake: make([]int64, numSM),
		queuedTo: make([]int, numPart),
	}
	x.minReqWake = never
	x.minRespWake = never
	for i := range x.reqWake {
		x.reqWake[i] = never
	}
	for i := range x.respWake {
		x.respWake[i] = never
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
	x.queuedTo[req.Channel]++
	if t < x.reqWake[req.Channel] {
		x.reqWake[req.Channel] = t
	}
	if t < x.minReqWake {
		x.minReqWake = t
	}
	return true
}

// PeekPart returns the next request deliverable to partition `part` at tick
// now without removing it; PopPart(part, now) consumes it. It returns nil when
// nothing is ready. Arbitration is round-robin across SMs (or sticky
// per-SM in NoInterleave mode); each (SM, partition) FIFO preserves
// order. A successful peek must be consumed (or re-peeked) before the
// partition's state changes: PopPart pops whatever the last PeekPart on
// that partition selected.
func (x *Xbar) PeekPart(part int, now int64) *memreq.Request {
	if x.NoInterleave {
		// Stick with the current SM while it has anything queued.
		cur := x.curSM[part]
		if cur >= 0 && x.toPart[cur][part].len() > 0 {
			return x.headIfReady(cur, part, now)
		}
		for i := 0; i < x.NumSM; i++ {
			sm := (x.rrReq[part] + i) % x.NumSM
			if x.toPart[sm][part].len() > 0 {
				x.curSM[part] = sm
				x.rrReq[part] = (sm + 1) % x.NumSM
				return x.headIfReady(sm, part, now)
			}
		}
		x.curSM[part] = -1
		return nil
	}
	// reqWake is a lower bound on the earliest head readyAt, so a future
	// bound proves the SM scan below would find nothing. The arbitration
	// state is untouched either way (rrReq only moves on a pop).
	if x.queuedTo[part] == 0 || x.reqWake[part] > now {
		return nil
	}
	for i := 0; i < x.NumSM; i++ {
		sm := (x.rrReq[part] + i) % x.NumSM
		if req := x.headIfReady(sm, part, now); req != nil {
			x.pendRot[part] = (sm + 1) % x.NumSM
			return req
		}
	}
	// Nothing ready: tighten the wake bound to the true earliest head so
	// the event loop can skip this partition until a request matures.
	x.recomputeReqWake(part)
	return nil
}

// headIfReady returns the head of the (sm, part) FIFO when it has
// matured, recording it as the partition's pending pop.
func (x *Xbar) headIfReady(sm, part int, now int64) *memreq.Request {
	q := &x.toPart[sm][part]
	if q.len() == 0 || q.front().readyAt > now {
		return nil
	}
	x.pendSM[part] = sm
	x.pendRot[part] = -1 // NoInterleave rotates eagerly in PeekPart
	return q.front().req
}

// PopPart consumes the request the last successful PeekPart(part, ·)
// returned at tick now, advancing the round-robin arbitration past its
// SM. Popping from a full (SM, partition) FIFO frees the slot that SM's
// replay head may be blocked on, so it lowers the SM's crossbar wake
// (RespWake) to now+1: SMs tick before partitions, so that is the first
// tick the SM's injection retry could succeed.
func (x *Xbar) PopPart(part int, now int64) {
	sm := x.pendSM[part]
	q := &x.toPart[sm][part]
	if q.len() >= x.CapPerQueue {
		x.lowerRespWake(sm, now+1)
	}
	q.pop()
	x.queuedTo[part]--
	x.recomputeReqWake(part)
	if rot := x.pendRot[part]; rot >= 0 {
		x.rrReq[part] = rot
	}
}

// recomputeReqWake restores the exact per-partition request-wake bound
// from the queue heads, then the whole-crossbar minimum.
func (x *Xbar) recomputeReqWake(part int) {
	w := never
	for sm := 0; sm < x.NumSM; sm++ {
		if q := &x.toPart[sm][part]; q.len() > 0 && q.front().readyAt < w {
			w = q.front().readyAt
		}
	}
	x.reqWake[part] = w
	m := never
	for i := range x.reqWake {
		if v := x.reqWake[i]; v < m {
			m = v
		}
	}
	x.minReqWake = m
}

func (x *Xbar) recomputeRespWake(sm int) {
	w := never
	for part := 0; part < x.NumPart; part++ {
		if q := &x.toSM[part][sm]; q.len() > 0 && q.front().readyAt < w {
			w = q.front().readyAt
		}
	}
	x.respWake[sm] = w
	m := never
	for i := range x.respWake {
		if v := x.respWake[i]; v < m {
			m = v
		}
	}
	x.minRespWake = m
}

// ReqWake returns the earliest tick at which PeekPart(part, ·) could
// return a request, or never when nothing is queued toward part. In
// NoInterleave mode the partition must be visited every tick while any
// request is queued: PeekPart mutates its sticky-SM arbitration state
// even on not-ready heads.
func (x *Xbar) ReqWake(part int) int64 {
	if x.NoInterleave {
		if x.queuedTo[part] > 0 {
			return 0
		}
		return never
	}
	return x.reqWake[part]
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
// SM could receive a response or a freed request slot.
func (x *Xbar) MinRespWake() int64 { return x.minRespWake }

// MinReqWake returns min over partitions of ReqWake — the earliest tick
// any partition could receive a request.
func (x *Xbar) MinReqWake() int64 {
	if x.NoInterleave {
		for i := range x.queuedTo {
			if x.queuedTo[i] > 0 {
				return 0
			}
		}
		return never
	}
	return x.minReqWake
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

// lowerRespWake min-updates SM sm's crossbar wake and the whole-crossbar
// minimum with tick t.
func (x *Xbar) lowerRespWake(sm int, t int64) {
	if t < x.respWake[sm] {
		x.respWake[sm] = t
	}
	if t < x.minRespWake {
		x.minRespWake = t
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
	for sm := range x.toPart {
		for part := range x.toPart[sm] {
			if x.toPart[sm][part].len() > 0 {
				return false
			}
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
