// Package coordnet models the dedicated point-to-point coordination
// interconnect of Section IV-C: a narrow all-to-all network of 30 16-bit
// links connecting the six memory controllers. When a controller selects a
// warp-group it broadcasts a 32-bit message (SM id, warp id, local
// completion-time score) to the other five controllers; each receiver
// checks its ports every cycle.
package coordnet

import "dramlat/internal/memreq"

// Msg is one coordination message.
type Msg struct {
	From  int // source controller
	Group memreq.GroupID
	Score int // the source's local completion-time score (LC)
}

type timedMsg struct {
	msg Msg
	due int64
}

// Network is the all-to-all coordination fabric.
type Network struct {
	nodes int
	// Delay is the base propagation latency in ticks.
	Delay int64
	// SerializeTicks is the link occupancy per message: a 32-bit message
	// crosses a 16-bit link in 2 ticks.
	SerializeTicks int64

	queues   [][]timedMsg // per destination (NOT due-ordered: links backpressure independently)
	nextDue  []int64      // per destination, exact min due over queues[dst]
	linkFree [][]int64    // per (src,dst) link availability
	outBuf   [][]Msg      // per destination, reused across Deliver calls

	Sent      int64
	Delivered int64
}

// New builds a network between n controllers with the given base delay.
func New(n int, delay int64) *Network {
	net := &Network{
		nodes:          n,
		Delay:          delay,
		SerializeTicks: 2,
		queues:         make([][]timedMsg, n),
		nextDue:        make([]int64, n),
		linkFree:       make([][]int64, n),
		outBuf:         make([][]Msg, n),
	}
	for i := range net.linkFree {
		net.linkFree[i] = make([]int64, n)
		net.nextDue[i] = never
	}
	return net
}

// Broadcast sends (group, score) from controller `from` to every other
// controller, respecting per-link serialization.
func (n *Network) Broadcast(from int, g memreq.GroupID, score int, now int64) {
	for dst := 0; dst < n.nodes; dst++ {
		if dst == from {
			continue
		}
		start := now
		if free := n.linkFree[from][dst]; free > start {
			start = free
		}
		n.linkFree[from][dst] = start + n.SerializeTicks
		due := start + n.SerializeTicks + n.Delay
		n.queues[dst] = append(n.queues[dst], timedMsg{Msg{from, g, score}, due})
		if due < n.nextDue[dst] {
			n.nextDue[dst] = due
		}
		n.Sent++
	}
}

// Deliver pops and returns every message destined to dst that has arrived
// by tick now, in arrival order. The returned slice is owned by the
// network and only valid until the next Deliver call for the same dst;
// callers consume it immediately (a receiver checks its ports once per
// cycle, so a hardware-faithful caller cannot hold two batches anyway).
func (n *Network) Deliver(dst int, now int64) []Msg {
	if now < n.nextDue[dst] {
		return nil // nothing has arrived yet; nextDue is exact
	}
	q := n.queues[dst]
	out := n.outBuf[dst][:0]
	keep := q[:0]
	next := never
	for _, tm := range q {
		if tm.due <= now {
			out = append(out, tm.msg)
			n.Delivered++
		} else {
			keep = append(keep, tm)
			if tm.due < next {
				next = tm.due
			}
		}
	}
	n.queues[dst] = keep
	n.nextDue[dst] = next
	n.outBuf[dst] = out
	return out
}

// PendingFor returns the number of undelivered messages queued for dst.
func (n *Network) PendingFor(dst int) int { return len(n.queues[dst]) }

// never is the wakeup-contract sentinel (see dram.Never).
const never int64 = 1 << 62

// NextDue returns the earliest due tick of any message queued for dst,
// or never when dst has no messages in flight. The event-driven system
// loop uses it to wake a controller exactly when Deliver would first
// return something. The value is maintained exactly: min-updated on
// Broadcast, recomputed from the survivors on every delivering Deliver.
func (n *Network) NextDue(dst int) int64 { return n.nextDue[dst] }
