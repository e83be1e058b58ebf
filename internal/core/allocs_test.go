package core

import (
	"math/rand"
	"testing"

	"dramlat/internal/coordnet"
	"dramlat/internal/memctrl"
	"dramlat/internal/memreq"
)

// TestWarpSchedulerSteadyStateAllocs pins the zero-alloc property of the
// wg-w scheduler: with the sorter, the per-bank filler lists and the
// coordination buffers warm, a sustained stream of multi-channel
// warp-groups and write-backs through OnEnqueue, dispatch and the MERB
// filler search must not allocate.
func TestWarpSchedulerSteadyStateAllocs(t *testing.T) {
	net := coordnet.New(2, 8)
	var scheds [2]*WarpScheduler
	var ctls [2]*memctrl.Controller
	var free []*memreq.Request
	recycle := func(r *memreq.Request, _ int64) { free = append(free, r) }
	for ch := range scheds {
		scheds[ch] = New(1, 8, WithCoordination(net, ch), WithMERB(), WithWriteAware())
		ctls[ch] = newCtl(scheds[ch])
		ctls[ch].OnReadDone = recycle
		ctls[ch].OnWriteDone = recycle
	}
	for i := 0; i < 256; i++ {
		free = append(free, &memreq.Request{})
	}

	// The stream runs in cycles: a burst of groups and writes from a
	// reseeded RNG, then quiet ticks until both controllers are idle.
	// Cycles replay the same requests, so the sorter's and the queues'
	// high-water marks stop rising after a few cycles; from then on a
	// cycle must not allocate. A per-event leak allocates every cycle.
	var id uint64
	var load uint32
	rng := rand.New(rand.NewSource(0))
	now := int64(0)
	issueGroup := func() {
		n := 1 + rng.Intn(4)
		if len(free) < n || ctls[0].ReadOccupancy() > 48 || ctls[1].ReadOccupancy() > 48 {
			return
		}
		load++
		g := memreq.GroupID{Warp: uint16(load % 8), Load: load}
		reqs := free[len(free)-n:]
		free = free[:len(free)-n]
		last := [2]int{-1, -1}
		for i, r := range reqs {
			id++
			ch := rng.Intn(2)
			*r = memreq.Request{ID: id, Kind: memreq.Read, Group: g, Channel: ch,
				Bank: rng.Intn(16), Row: rng.Intn(6), Col: rng.Intn(64) * 2}
			last[ch] = i
		}
		channels := 0
		for _, i := range last {
			if i >= 0 {
				channels++
				reqs[i].LastInChannel = true
			}
		}
		for _, r := range reqs {
			r.GroupChannels = uint8(channels)
			if !ctls[r.Channel].AcceptRead(r, now) {
				t.Fatal("read queue full below its occupancy bound")
			}
		}
	}
	tick := func() {
		for ch := range ctls {
			scheds[ch].PollCoordination(now)
			ctls[ch].Tick(now)
		}
		now++
	}
	cycle := func() {
		rng.Seed(7)
		for i := 0; i < 4000; i++ {
			issueGroup()
			if len(free) > 0 && rng.Intn(3) == 0 {
				r := free[len(free)-1]
				id++
				ch := rng.Intn(2)
				*r = memreq.Request{ID: id, Kind: memreq.Write, Channel: ch,
					Bank: rng.Intn(16), Row: rng.Intn(6), Col: rng.Intn(64) * 2}
				if ctls[ch].AcceptWrite(r, now) {
					free = free[:len(free)-1]
				}
			}
			tick()
		}
		for !ctls[0].Idle() || !ctls[1].Idle() {
			tick()
		}
	}
	cycle()
	if scheds[0].Stats.GroupsSelected == 0 || scheds[0].Stats.MERBFillers == 0 {
		t.Fatalf("stream did not exercise group selection and MERB fillers: %+v", scheds[0].Stats)
	}
	// AllocsPerRun(1, ...) runs one unmeasured and one measured cycle. One
	// measured run, not many short ones: AllocsPerRun divides by the run
	// count in integer arithmetic and would round a sparse leak to 0.
	const tries = 50
	allocs := 0.0
	for try := 0; try < tries; try++ {
		if allocs = testing.AllocsPerRun(1, cycle); allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Fatalf("wg-w stream still allocated %.0f times per cycle after %d cycles, want 0", allocs, 2*tries+1)
	}
}
