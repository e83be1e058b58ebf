package telemetry

import (
	"fmt"

	"dramlat/internal/memreq"
)

// Kind enumerates the event taxonomy. The begin/end kinds form balanced
// pairs in a completed trace (Validate checks this).
type Kind uint8

const (
	// EvLoadIssue: a warp-load left the coalescer with at least one
	// request entering the memory system. A = post-coalescing lines,
	// B = requests sent past the L1.
	EvLoadIssue Kind = iota
	// EvLoadUnblock: the issuing warp resumed (last response returned,
	// or first response under the Zero-Latency-Divergence ideal).
	EvLoadUnblock
	// EvEnqRead: a read entered a controller's read queue (A = occupancy
	// after). Also emitted for bus-only ideal-model requests.
	EvEnqRead
	// EvEnqWrite: a write entered a controller's write queue (A =
	// occupancy after).
	EvEnqWrite
	// EvDeqRead: the transaction scheduler dispatched a read to the DRAM
	// command queues (A = read-queue occupancy after).
	EvDeqRead
	// EvDeqWrite: the drain logic dispatched a write to the DRAM command
	// queues (A = write-queue occupancy after).
	EvDeqWrite
	// EvDone: DRAM finished transferring a read request's data; one event
	// per warp-group sharing the line (MSHR-merged groups included), so
	// per-group divergence gaps are recoverable from the trace alone.
	EvDone
	// EvACT / EvPRE / EvRD / EvWR: one DRAM command issued on the channel
	// command bus. RD/WR carry the owning request and group.
	EvACT
	EvPRE
	EvRD
	EvWR
	// EvMERBBegin / EvMERBEnd: a WG-Bw row-hit filler streak protecting a
	// row from an interrupting miss started / the protected miss finally
	// dispatched (Section IV-D).
	EvMERBBegin
	EvMERBEnd
	// EvDrainBegin / EvDrainEnd: the controller's write-drain state
	// machine engaged / released (A = write-queue occupancy).
	EvDrainBegin
	EvDrainEnd
	// EvWindow: a sampled-engine phase boundary (A = phase code: 0
	// measure, 1 drain, 2 fast-forward, 3 warm-up; B = region index).
	// Lets dlprof show which trace regions were modeled statistically —
	// no other events exist inside a fast-forward region.
	EvWindow

	kindCount
)

var kindNames = [kindCount]string{
	EvLoadIssue:   "load_issue",
	EvLoadUnblock: "load_unblock",
	EvEnqRead:     "enq_read",
	EvEnqWrite:    "enq_write",
	EvDeqRead:     "deq_read",
	EvDeqWrite:    "deq_write",
	EvDone:        "dram_done",
	EvACT:         "act",
	EvPRE:         "pre",
	EvRD:          "rd",
	EvWR:          "wr",
	EvMERBBegin:   "merb_begin",
	EvMERBEnd:     "merb_end",
	EvDrainBegin:  "drain_begin",
	EvDrainEnd:    "drain_end",
	EvWindow:      "window",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one trace record. Fields that do not apply to a kind hold -1
// (Channel, Bank, Row, SM, Warp) or 0 (Load, Req, A, B); see the Kind
// constants for which fields each kind populates.
type Event struct {
	Tick    int64
	Kind    Kind
	Channel int16
	Bank    int16
	Row     int32
	SM      int32
	Warp    int32
	Load    uint32
	Req     uint64
	A, B    int64
}

// GroupID reconstructs the warp-group identity carried by the event; the
// zero (invalid) GroupID is returned for ungrouped traffic.
func (e Event) GroupID() memreq.GroupID {
	if e.SM < 0 || e.Load == 0 {
		return memreq.GroupID{}
	}
	return memreq.GroupID{SM: uint16(e.SM), Warp: uint16(e.Warp), Load: e.Load}
}

// Tracer records events into a bounded ring buffer. It is not safe for
// concurrent use; every engine emits from one goroutine. A nil
// *Tracer is the disabled probe: instrumentation sites guard each emit
// with a nil check, so disabled tracing costs one branch per site.
type Tracer struct {
	buf     []Event
	next    int  // overwrite cursor once full
	full    bool // buf wrapped at least once
	dropped int64
}

// NewTracer builds a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

func (t *Tracer) add(e Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	t.full = true
	t.dropped++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in recording order. Recording order
// is causal per tick but not globally sorted by Tick: DRAM completions are
// recorded at command-issue time with their (future) data-transfer
// timestamp. SortEvents restores timestamp order for export.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
		return out
	}
	return append(out, t.buf...)
}

// none fills the "not applicable" sentinels.
func none() Event {
	return Event{Channel: -1, Bank: -1, Row: -1, SM: -1, Warp: -1}
}

func (t *Tracer) group(e Event, g memreq.GroupID) Event {
	if g.Valid() {
		e.SM, e.Warp, e.Load = int32(g.SM), int32(g.Warp), g.Load
	}
	return e
}

// LoadIssue records a warp-load entering the memory system.
func (t *Tracer) LoadIssue(now int64, g memreq.GroupID, lines, sent int) {
	e := none()
	e.Tick, e.Kind, e.A, e.B = now, EvLoadIssue, int64(lines), int64(sent)
	t.add(t.group(e, g))
}

// LoadUnblock records the issuing warp resuming.
func (t *Tracer) LoadUnblock(now int64, g memreq.GroupID) {
	e := none()
	e.Tick, e.Kind = now, EvLoadUnblock
	t.add(t.group(e, g))
}

// EnqueueRead records a read entering channel ch's read queue.
func (t *Tracer) EnqueueRead(now int64, ch int, r *memreq.Request, occupancy int) {
	e := none()
	e.Tick, e.Kind, e.Channel = now, EvEnqRead, int16(ch)
	e.Bank, e.Row = int16(r.Bank), int32(r.Row)
	e.Req, e.A = r.ID, int64(occupancy)
	t.add(t.group(e, r.Group))
}

// EnqueueWrite records a write entering channel ch's write queue.
func (t *Tracer) EnqueueWrite(now int64, ch int, r *memreq.Request, occupancy int) {
	e := none()
	e.Tick, e.Kind, e.Channel = now, EvEnqWrite, int16(ch)
	e.Bank, e.Row = int16(r.Bank), int32(r.Row)
	e.Req, e.A = r.ID, int64(occupancy)
	t.add(e)
}

// DequeueRead records the scheduler dispatching a read to DRAM.
func (t *Tracer) DequeueRead(now int64, ch int, r *memreq.Request, occupancy int) {
	e := none()
	e.Tick, e.Kind, e.Channel = now, EvDeqRead, int16(ch)
	e.Bank, e.Row = int16(r.Bank), int32(r.Row)
	e.Req, e.A = r.ID, int64(occupancy)
	t.add(t.group(e, r.Group))
}

// DequeueWrite records the drain logic dispatching a write to DRAM.
func (t *Tracer) DequeueWrite(now int64, ch int, r *memreq.Request, occupancy int) {
	e := none()
	e.Tick, e.Kind, e.Channel = now, EvDeqWrite, int16(ch)
	e.Bank, e.Row = int16(r.Bank), int32(r.Row)
	e.Req, e.A = r.ID, int64(occupancy)
	t.add(e)
}

// Done records DRAM finishing a read's data transfer for one warp-group
// (the request's own group, or a group MSHR-merged onto its line).
func (t *Tracer) Done(now int64, ch int, g memreq.GroupID, reqID uint64) {
	e := none()
	e.Tick, e.Kind, e.Channel, e.Req = now, EvDone, int16(ch), reqID
	t.add(t.group(e, g))
}

// Command records one issued DRAM command. kind must be one of EvACT,
// EvPRE, EvRD, EvWR; row is -1 for PRE. For column commands the owning
// request and its group tie the command stream back to warp-groups.
func (t *Tracer) Command(now int64, kind Kind, ch, bank, row int, r *memreq.Request) {
	e := none()
	e.Tick, e.Kind, e.Channel, e.Bank = now, kind, int16(ch), int16(bank)
	e.Row = int32(row)
	if r != nil {
		e.Req = r.ID
		e = t.group(e, r.Group)
	}
	t.add(e)
}

// MERBStreakBegin records a WG-Bw filler streak starting on (ch, bank) to
// protect the open row from an interrupting miss.
func (t *Tracer) MERBStreakBegin(now int64, ch, bank, row int) {
	e := none()
	e.Tick, e.Kind, e.Channel = now, EvMERBBegin, int16(ch)
	e.Bank, e.Row = int16(bank), int32(row)
	t.add(e)
}

// MERBStreakEnd records the protected miss finally dispatching.
func (t *Tracer) MERBStreakEnd(now int64, ch, bank int) {
	e := none()
	e.Tick, e.Kind, e.Channel, e.Bank = now, EvMERBEnd, int16(ch), int16(bank)
	t.add(e)
}

// DrainBegin records a write drain engaging on channel ch.
func (t *Tracer) DrainBegin(now int64, ch, occupancy int) {
	e := none()
	e.Tick, e.Kind, e.Channel, e.A = now, EvDrainBegin, int16(ch), int64(occupancy)
	t.add(e)
}

// DrainEnd records the drain releasing.
func (t *Tracer) DrainEnd(now int64, ch, occupancy int) {
	e := none()
	e.Tick, e.Kind, e.Channel, e.A = now, EvDrainEnd, int16(ch), int64(occupancy)
	t.add(e)
}

// Sampled-engine phase codes carried in EvWindow's A field.
const (
	WindowMeasure     = 0 // full-fidelity measurement window begins
	WindowDrain       = 1 // SMs frozen, memory system draining
	WindowFastForward = 2 // statistical fast-forward region begins
	WindowWarmup      = 3 // detailed warm-up before the next window
)

// Window records a sampled-engine phase boundary: phase is a Window*
// code, region the zero-based sampling-region index.
func (t *Tracer) Window(now int64, phase int, region int) {
	e := none()
	e.Tick, e.Kind, e.A, e.B = now, EvWindow, int64(phase), int64(region)
	t.add(e)
}
