// Package memreq defines the memory-request and warp-group identity types
// shared by every layer of the memory system: the SIMT cores' coalescer, the
// crossbar, the cache hierarchy, and the DRAM memory controllers.
//
// A warp-group (Section IV-A of the paper) is the set of DRAM requests
// generated by one load instruction of one warp. The memory controllers in
// internal/core schedule warp-groups, not individual requests, so the group
// identity travels with every request.
package memreq

import "fmt"

// Kind distinguishes read requests (loads, L2 fills) from write requests
// (L2 write-backs draining to DRAM).
type Kind uint8

const (
	// Read is a load/fill request; it is on the critical path of a warp.
	Read Kind = iota
	// Write is an L2 write-back; it is buffered and drained in batches.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// GroupID identifies a warp-group: one dynamic load instruction of one warp.
// The zero value is reserved for ungrouped traffic (write-backs).
type GroupID struct {
	SM   uint16 // issuing streaming multiprocessor
	Warp uint16 // warp index within the SM
	Load uint32 // per-warp dynamic load serial number (1-based)
}

// Valid reports whether the ID names a real warp-group. Write-backs and
// other ungrouped traffic carry the zero GroupID.
func (g GroupID) Valid() bool { return g.Load != 0 }

// WarpSlot returns g's warp index in a table of sms × warpsPerSM warps,
// SM-major, or sms*warpsPerSM (one past the table) when g's warp lies
// outside that shape.
func (g GroupID) WarpSlot(sms, warpsPerSM int) int {
	if int(g.SM) < sms && int(g.Warp) < warpsPerSM {
		return int(g.SM)*warpsPerSM + int(g.Warp)
	}
	return sms * warpsPerSM
}

// String implements fmt.Stringer.
func (g GroupID) String() string {
	if !g.Valid() {
		return "ungrouped"
	}
	return fmt.Sprintf("sm%d.w%d.ld%d", g.SM, g.Warp, g.Load)
}

// Request is one 128-byte cache-line-sized memory request as seen by the
// memory system. Requests are created by the coalescer (reads) or by L2
// eviction (writes) and are mutated in place as they flow through the
// pipeline (decode fields, timestamps).
type Request struct {
	ID   uint64 // globally unique, for tracing and map keys
	Kind Kind
	Addr uint64 // byte address, 128B aligned

	// Group identity (reads only; zero for writes).
	Group GroupID

	// GroupChannels is the number of distinct memory channels the whole
	// warp-group sends requests to (computed by the coalescer). The
	// WG-M coordination logic uses it to recognize when this controller
	// is the last one still holding work for the warp.
	GroupChannels uint8

	// LastInChannel marks the final request that the issuing warp-load
	// sends toward this request's channel. The order-preserving
	// interconnect guarantees it arrives after its siblings, so the warp
	// sorter uses it to detect that the group is fully transferred
	// (Section IV-B2). If this request is filtered by an L2 hit or MSHR
	// merge, the L2 slice forwards a GroupComplete credit instead.
	LastInChannel bool

	// BusOnly marks a trailing request of a warp-group under the
	// Zero-Latency-Divergence ideal (Fig 4): the paper's model abstracts
	// away bank conflicts for all but one request per warp while still
	// modeling DRAM bus bandwidth and contention, so these requests
	// bypass the banks and occupy only the data bus.
	BusOnly bool

	// CreditOnly marks a zero-data group-credit marker: it flows through
	// the ordered request path so the memory controller learns that a
	// group's tagged request was filtered upstream (L1/L2 hit or MSHR
	// merge). It never reaches DRAM.
	CreditOnly bool

	// Decoded DRAM coordinates (filled by addrmap.Decode).
	Channel int
	Bank    int
	Row     int
	Col     int

	// Timestamps (ticks). Issue is when the SM issued the load; Arrive is
	// when the request entered the memory controller's read/write queue;
	// Done is when DRAM finished transferring its data.
	Issue  int64
	Arrive int64
	Done   int64
}

// String implements fmt.Stringer.
func (r *Request) String() string {
	return fmt.Sprintf("%s@%#x ch%d b%d r%d c%d (%s)",
		r.Kind, r.Addr, r.Channel, r.Bank, r.Row, r.Col, r.Group)
}

// Pool is a freelist of Requests for the simulator's hot allocation
// paths (the coalescer's per-load request fan-out and the L2's dirty
// write-backs). Unlike sync.Pool it is deterministic: Get always
// returns a fully zeroed Request, so simulation behaviour is identical
// whether a request is fresh or recycled, and identical across engines
// that recycle in different orders. A Pool is not safe for concurrent
// use; a gpu.System owns one and shares it with every SM and partition,
// so a request absorbed anywhere feeds the next Get anywhere.
type Pool struct {
	free []*Request
}

// Get returns a zeroed Request, recycling a freed one when available.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return &Request{}
}

// Put recycles a Request the caller will never touch again. The request
// is zeroed immediately so a use-after-free reads as obviously dead
// state rather than another request's fields. Put(nil) is a no-op.
func (p *Pool) Put(r *Request) {
	if r == nil {
		return
	}
	*r = Request{}
	p.free = append(p.free, r)
}
