package xbar

import (
	"testing"

	"dramlat/internal/memreq"
)

func req(id uint64, smID uint16, ch int) *memreq.Request {
	return &memreq.Request{
		ID: id, Kind: memreq.Read, Channel: ch,
		Group: memreq.GroupID{SM: smID, Warp: 0, Load: 1},
	}
}

func TestLatencyAndDelivery(t *testing.T) {
	x := New(4, 2, 10, 8)
	r := req(1, 0, 1)
	if !x.Inject(0, r, 100) {
		t.Fatal("inject failed")
	}
	if got := x.PopPart(1, 105); got != nil {
		t.Fatal("delivered before latency elapsed")
	}
	if got := x.PopPart(1, 110); got != r {
		t.Fatalf("got %v", got)
	}
	if got := x.PopPart(1, 111); got != nil {
		t.Fatal("request not consumed")
	}
}

func TestPerSMOrderPreserved(t *testing.T) {
	x := New(2, 1, 0, 8)
	for i := 0; i < 5; i++ {
		x.Inject(0, req(uint64(i), 0, 0), 0)
	}
	for i := 0; i < 5; i++ {
		got := x.PopPart(0, 0)
		if got == nil || got.ID != uint64(i) {
			t.Fatalf("position %d: got %v", i, got)
		}
	}
}

func TestSMsInterleave(t *testing.T) {
	x := New(2, 1, 0, 8)
	for i := 0; i < 3; i++ {
		x.Inject(0, req(uint64(10+i), 0, 0), 0)
		x.Inject(1, req(uint64(20+i), 1, 0), 0)
	}
	var order []uint64
	for {
		got := x.PopPart(0, 0)
		if got == nil {
			break
		}
		order = append(order, got.ID)
	}
	want := []uint64{10, 20, 11, 21, 12, 22}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestNoInterleaveDrainsOneSM(t *testing.T) {
	x := New(2, 1, 0, 8)
	x.NoInterleave = true
	for i := 0; i < 3; i++ {
		x.Inject(0, req(uint64(10+i), 0, 0), 0)
		x.Inject(1, req(uint64(20+i), 1, 0), 0)
	}
	var order []uint64
	for {
		got := x.PopPart(0, 0)
		if got == nil {
			break
		}
		order = append(order, got.ID)
	}
	want := []uint64{10, 11, 12, 20, 21, 22}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v (sticky SM)", order, want)
		}
	}
}

func TestInjectBackpressure(t *testing.T) {
	x := New(1, 1, 0, 2)
	if !x.Inject(0, req(1, 0, 0), 0) || !x.Inject(0, req(2, 0, 0), 0) {
		t.Fatal("inject below cap failed")
	}
	if x.Inject(0, req(3, 0, 0), 0) {
		t.Fatal("inject past cap succeeded")
	}
	if x.Rejected != 1 {
		t.Fatalf("rejected=%d", x.Rejected)
	}
}

func TestResponsePath(t *testing.T) {
	x := New(2, 2, 5, 8)
	r := req(1, 1, 0)
	x.Respond(0, r, 100)
	if x.PopResponse(1, 104) != nil {
		t.Fatal("response before latency")
	}
	if got := x.PopResponse(1, 105); got != r {
		t.Fatalf("got %v", got)
	}
	if x.PopResponse(0, 200) != nil {
		t.Fatal("response to wrong SM")
	}
}

func TestRespondTo(t *testing.T) {
	x := New(2, 1, 0, 8)
	r := &memreq.Request{ID: 9, Kind: memreq.Read}
	x.RespondTo(0, 1, r, 0)
	if got := x.PopResponse(1, 0); got != r {
		t.Fatalf("got %v", got)
	}
}

func TestEmpty(t *testing.T) {
	x := New(1, 1, 0, 4)
	if !x.Empty() {
		t.Fatal("fresh crossbar not empty")
	}
	x.Inject(0, req(1, 0, 0), 0)
	if x.Empty() {
		t.Fatal("empty with queued request")
	}
	x.PopPart(0, 0)
	x.Respond(0, req(2, 0, 0), 0)
	if x.Empty() {
		t.Fatal("empty with queued response")
	}
	x.PopResponse(0, 100)
	if !x.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestPartitionRoundRobinFair(t *testing.T) {
	// Three SMs contending for one partition: over 3N pops each SM gets N.
	x := New(3, 1, 0, 64)
	for i := 0; i < 30; i++ {
		for s := 0; s < 3; s++ {
			x.Inject(s, req(uint64(s*100+i), uint16(s), 0), 0)
		}
	}
	counts := map[uint16]int{}
	for i := 0; i < 30; i++ {
		got := x.PopPart(0, 0)
		counts[got.Group.SM]++
	}
	for s := uint16(0); s < 3; s++ {
		if counts[s] != 10 {
			t.Fatalf("SM %d got %d of 30 slots", s, counts[s])
		}
	}
}

// TestPopFullQueueWakesSM pins the freed-slot wake the event loop relies
// on to sleep an SM whose replay head the crossbar rejected: popping
// from a full (SM, partition) FIFO lowers that SM's RespWake and
// MinRespWake to now+1, popping from a non-full FIFO leaves them alone,
// and the SM's next PopResponse restores the true response-head bound.
func TestPopFullQueueWakesSM(t *testing.T) {
	x := New(2, 2, 10, 2)
	x.Respond(0, req(100, 1, 0), 50) // SM 1's response head matures at 60
	x.Inject(1, req(1, 1, 0), 0)
	x.Inject(1, req(2, 1, 0), 0) // SM 1 -> partition 0 is now full
	x.Inject(1, req(3, 1, 1), 0) // SM 1 -> partition 1 holds 1 of 2
	check := func(when string, sm1, min int64) {
		t.Helper()
		if got := x.RespWake(1); got != sm1 {
			t.Fatalf("%s: RespWake(1) = %d, want %d", when, got, sm1)
		}
		if got := x.MinRespWake(); got != min {
			t.Fatalf("%s: MinRespWake() = %d, want %d", when, got, min)
		}
		if got := x.RespWake(0); got != never {
			t.Fatalf("%s: RespWake(0) = %d, want never", when, got)
		}
	}
	check("before pops", 60, 60)

	if x.PopPart(1, 20) == nil {
		t.Fatal("partition 1 has nothing ready")
	}
	check("pop from non-full FIFO", 60, 60)

	if x.PopPart(0, 20) == nil {
		t.Fatal("partition 0 has nothing ready")
	}
	check("pop from full FIFO", 21, 21)

	// The FIFO is no longer full: no new wake.
	if x.PopPart(0, 21) == nil {
		t.Fatal("partition 0 lost its second request")
	}
	check("second pop", 21, 21)

	if r := x.PopResponse(1, 21); r != nil {
		t.Fatalf("response delivered before it matured: %v", r)
	}
	check("after PopResponse", 60, 60)
}

// churn drives a crossbar the size of the largest machine the benchmark
// runs (bfs-lowocc's 120 SMs, 6 partitions) through steady traffic. Each SM injects on every 20th tick,
// staggered by its index, toward a rotating partition, so on every tick
// about six requests enter with heads at different maturities. Every
// partition pops once per tick, answers what it popped, and every SM
// drains its response. Requests recycle through a free stack, so warm
// ticks touch no allocator.
type churn struct {
	x    *Xbar
	free []*memreq.Request
	now  int64
}

func newChurn() *churn {
	const sms, parts, capPerQueue = 120, 6, 8
	c := &churn{x: New(sms, parts, 20, capPerQueue)}
	for i := 0; i < sms*parts*capPerQueue; i++ {
		c.free = append(c.free, &memreq.Request{})
	}
	return c
}

func (c *churn) tick() {
	x, now := c.x, c.now
	for sm := 0; sm < x.NumSM; sm++ {
		if (int64(sm)+now)%20 != 0 || len(c.free) == 0 {
			continue
		}
		r := c.free[len(c.free)-1]
		*r = memreq.Request{ID: uint64(now), Kind: memreq.Read,
			Channel: int(now/20+int64(sm)) % x.NumPart,
			Group:   memreq.GroupID{SM: uint16(sm), Warp: 0, Load: 1}}
		if x.Inject(sm, r, now) {
			c.free = c.free[:len(c.free)-1]
		}
	}
	for part := 0; part < x.NumPart; part++ {
		if r := x.PopPart(part, now); r != nil {
			x.Respond(part, r, now)
		}
	}
	for sm := 0; sm < x.NumSM; sm++ {
		if r := x.PopResponse(sm, now); r != nil {
			c.free = append(c.free, r)
		}
	}
	c.now++
}

// BenchmarkXbarPopPart times one tick of the churn above: the cost of the
// partitions' round-robin arbitration scans plus the SMs' injections and
// response pops.
func BenchmarkXbarPopPart(b *testing.B) {
	c := newChurn()
	for i := 0; i < 1000; i++ {
		c.tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.tick()
	}
}

// TestCrossbarSteadyStateAllocs pins the zero-alloc property of the
// crossbar: once its rings have grown to the steady-state occupancy,
// Inject/PopPart/Respond/PopResponse churn must not allocate.
func TestCrossbarSteadyStateAllocs(t *testing.T) {
	c := newChurn()
	for i := 0; i < 5000; i++ {
		c.tick() // grow every ring to its steady-state capacity
	}
	if c.x.Injected == 0 || c.x.Responses == 0 {
		t.Fatal("churn moved no traffic")
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			c.tick()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state crossbar churn allocated: %.2f allocs per 100 ticks, want 0", avg)
	}
}
