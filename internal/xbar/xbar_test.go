package xbar

import (
	"math/rand"
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

// refArbitrate is the port arbitration as a plain O(NumSM) scan: the
// round-robin over every SM's FIFO head from rrReq (or, in NoInterleave
// mode, over every SM's FIFO for the next one with anything queued). It
// reads and advances x's rrReq/curSM but none of the queued masks or
// partWake bounds, so it checks arbitrate's order, not its shortcuts.
func refArbitrate(x *Xbar, part int, now int64) int {
	ready := func(sm int) bool {
		q := &x.toPart[sm][part]
		return q.len() > 0 && q.front().readyAt <= now
	}
	if x.NoInterleave {
		sm := x.curSM[part]
		if sm < 0 || x.toPart[sm][part].len() == 0 {
			sm = -1
			for i := 0; i < x.NumSM; i++ {
				if s := (x.rrReq[part] + i) % x.NumSM; x.toPart[s][part].len() > 0 {
					sm = s
					x.rrReq[part] = (s + 1) % x.NumSM
					break
				}
			}
			x.curSM[part] = sm
		}
		if sm < 0 || !ready(sm) {
			return -1
		}
		return sm
	}
	for i := 0; i < x.NumSM; i++ {
		if sm := (x.rrReq[part] + i) % x.NumSM; ready(sm) {
			x.rrReq[part] = (sm + 1) % x.NumSM
			return sm
		}
	}
	return -1
}

// refPopPart is PopPart over refArbitrate.
func refPopPart(x *Xbar, part int, now int64) *memreq.Request {
	sm := refArbitrate(x, part, now)
	if sm < 0 {
		return nil
	}
	return x.toPart[sm][part].pop().req
}

// TestArbitrateMatchesReference drives one crossbar through PopPart and
// a twin through the reference scan with the same random Inject/PopPart
// stream, at SM counts on both sides of the 64-bit mask word, in both
// interleave modes. The popped requests and each port's rrReq/curSM
// must match pop for pop. After every operation each queued bit must
// equal its FIFO's non-emptiness, Empty must agree, and each port's
// partWake must never be late: while now < partWake no FIFO head toward
// the port has matured (the rule TestNextWakeupNeverLate checks for
// DRAM).
func TestArbitrateMatchesReference(t *testing.T) {
	const parts, capPerQueue, ticks = 3, 4, 3000
	for _, numSM := range []int{1, 30, 63, 64, 65, 120} {
		for _, noInterleave := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(numSM)))
			latency := int64(1 + rng.Intn(30))
			x, ref := New(numSM, parts, latency, capPerQueue), New(numSM, parts, latency, capPerQueue)
			x.NoInterleave, ref.NoInterleave = noInterleave, noInterleave
			check := func(now int64) {
				t.Helper()
				queued := false
				for part := 0; part < parts; part++ {
					for sm := 0; sm < numSM; sm++ {
						q := &x.toPart[sm][part]
						queued = queued || q.len() > 0
						bit := x.queued[part*x.words+sm/64]>>(sm%64)&1 == 1
						if bit != (q.len() > 0) {
							t.Fatalf("sm %d part %d tick %d: queued bit %v with %d queued", sm, part, now, bit, q.len())
						}
						if now < x.partWake[part] && q.len() > 0 && q.front().readyAt <= now {
							t.Fatalf("sm %d part %d tick %d: head matured at %d before partWake %d",
								sm, part, now, q.front().readyAt, x.partWake[part])
						}
					}
				}
				if empty := x.Empty(); empty == queued {
					t.Fatalf("tick %d: Empty() = %v with requests queued: %v", now, empty, queued)
				}
			}
			var id uint64
			for now := int64(0); now < ticks; now++ {
				// Bursts of injections separated by quiet stretches, so
				// ports both idle with traffic in flight and contend.
				burst := 0
				if now%200 < 60 {
					burst = rng.Intn(numSM/4 + 2)
				}
				for i := 0; i < burst; i++ {
					sm, part := rng.Intn(numSM), rng.Intn(parts)
					id++
					a, b := x.Inject(sm, req(id, uint16(sm), part), now), ref.Inject(sm, req(id, uint16(sm), part), now)
					if a != b {
						t.Fatalf("sm %d part %d tick %d: inject %v, reference %v", sm, part, now, a, b)
					}
					check(now)
				}
				for part := 0; part < parts; part++ {
					if rng.Intn(4) == 0 {
						continue // the partition's L2 pipe is full this tick
					}
					got, want := x.PopPart(part, now), refPopPart(ref, part, now)
					if (got == nil) != (want == nil) || got != nil && got.ID != want.ID {
						t.Fatalf("%d SMs, noInterleave %v, part %d tick %d: popped %v, reference %v",
							numSM, noInterleave, part, now, got, want)
					}
					if x.rrReq[part] != ref.rrReq[part] || x.curSM[part] != ref.curSM[part] {
						t.Fatalf("%d SMs, noInterleave %v, part %d tick %d: rrReq/curSM %d/%d, reference %d/%d",
							numSM, noInterleave, part, now, x.rrReq[part], x.curSM[part], ref.rrReq[part], ref.curSM[part])
					}
					check(now)
				}
			}
			if x.Injected == 0 || x.Rejected == 0 {
				t.Fatalf("%d SMs: stream injected %d, rejected %d; want both", numSM, x.Injected, x.Rejected)
			}
		}
	}
}

// BenchmarkXbarPopPartIdle times one tick of the six partition ports of
// a 120-SM crossbar whose every FIFO holds a request still in flight:
// the port wake bound, not the SMs' FIFO heads, decides each PopPart.
func BenchmarkXbarPopPartIdle(b *testing.B) {
	const sms, parts = 120, 6
	x := New(sms, parts, 1<<40, 8)
	for sm := 0; sm < sms; sm++ {
		for part := 0; part < parts; part++ {
			x.Inject(sm, req(uint64(sm*parts+part), uint16(sm), part), 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for part := 0; part < parts; part++ {
			if x.PopPart(part, int64(i)) != nil {
				b.Fatal("an in-flight request was delivered")
			}
		}
	}
}
