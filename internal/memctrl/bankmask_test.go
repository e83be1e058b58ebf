package memctrl

import (
	"math/rand"
	"testing"

	"dramlat/internal/dram"
	"dramlat/internal/gddr5"
	"dramlat/internal/memreq"
)

// refGMCNextRead is GMC.NextRead as a plain bank loop: every bank in
// round-robin order from rrBank, skipping the ones without streams.
func refGMCNextRead(g *GMC, now int64) *memreq.Request {
	nb := g.ctl.Chan.NumBanks
	for i := 0; i < nb; i++ {
		bank := (g.rrBank + i) % nb
		if len(g.rs.perBank[bank]) == 0 || !g.ctl.Chan.CanAccept(bank) {
			continue
		}
		if r := g.serve(bank, now); r != nil {
			return r
		}
	}
	return nil
}

// refSBWASNextRead is SBWAS.NextRead as a plain bank loop.
func refSBWASNextRead(s *SBWAS, _ int64) *memreq.Request {
	nb := s.ctl.Chan.NumBanks
	cutoff := s.shortJobCutoff()
	for i := 0; i < nb; i++ {
		bank := (s.rrBank + i) % nb
		if len(s.rs.perBank[bank]) == 0 || !s.ctl.Chan.CanAccept(bank) {
			continue
		}
		if r := s.serve(bank, cutoff); r != nil {
			return r
		}
	}
	return nil
}

// checkPendingMask fails unless the sorter's pending bit b is set exactly
// when bank b holds a stream.
func checkPendingMask(t *testing.T, rs *RowSorter, step int) {
	t.Helper()
	for b, streams := range rs.perBank {
		if bit := rs.pending>>uint(b)&1 == 1; bit != (len(streams) > 0) {
			t.Fatalf("step %d: bank %d pending bit %v with %d streams", step, b, bit, len(streams))
		}
	}
	if len(rs.perBank) < 64 && rs.pending>>uint(len(rs.perBank)) != 0 {
		t.Fatalf("step %d: pending %#x has bits past bank %d", step, rs.pending, len(rs.perBank)-1)
	}
}

// TestNextReadMatchesReference runs GMC and SBWAS against twins driven
// by the reference bank loops above, with the same random reads, at 16,
// 32 and 64 banks. Each bank's command queue holds 2 transactions and
// the channel issues only every other tick, so banks fill at random and
// the scan must skip them. Each pick, the round-robin position and every
// sorter's pending mask (through Add, PopFrom and SBWAS's removeAt) must
// match the reference after every step.
func TestNextReadMatchesReference(t *testing.T) {
	scheds := []struct {
		name string
		make func() Scheduler
		ref  func(Scheduler, int64) *memreq.Request
		rs   func(Scheduler) *RowSorter
		rr   func(Scheduler) int
	}{
		{"gmc", func() Scheduler { return NewGMC() },
			func(s Scheduler, now int64) *memreq.Request { return refGMCNextRead(s.(*GMC), now) },
			func(s Scheduler) *RowSorter { return s.(*GMC).rs },
			func(s Scheduler) int { return s.(*GMC).rrBank }},
		{"sbwas", func() Scheduler { return NewSBWAS(0.75) },
			func(s Scheduler, now int64) *memreq.Request { return refSBWASNextRead(s.(*SBWAS), now) },
			func(s Scheduler) *RowSorter { return s.(*SBWAS).rs },
			func(s Scheduler) int { return s.(*SBWAS).rrBank }},
	}
	for _, sc := range scheds {
		for _, nb := range []int{16, 32, 64} {
			rng := rand.New(rand.NewSource(int64(nb)))
			sched, ref := sc.make(), sc.make()
			chans := [2]*dram.Channel{dram.NewChannel(gddr5.Default(), nb, 4, 2), dram.NewChannel(gddr5.Default(), nb, 4, 2)}
			sched.Attach(&Controller{Chan: chans[0]})
			ref.Attach(&Controller{Chan: chans[1]})
			var id uint64
			picked, blocked := 0, 0
			for now := int64(0); now < 4000; now++ {
				for n := rng.Intn(3); n > 0 && sched.Pending() < 96; n-- {
					id++
					// Few rows and a hot bank range, so streams repeat
					// and some banks stay busy while others go idle.
					bank := rng.Intn(nb)
					if rng.Intn(2) == 0 {
						bank = rng.Intn(4)
					}
					g := memreq.GroupID{SM: uint16(rng.Intn(3)), Warp: uint16(rng.Intn(4)), Load: 1}
					r := &memreq.Request{ID: id, Kind: memreq.Read, Bank: bank, Row: rng.Intn(4), Arrive: now, Group: g}
					r2 := *r
					sched.OnEnqueue(r, now)
					ref.OnEnqueue(&r2, now)
				}
				pending := sched.Pending()
				got, want := sched.NextRead(now), sc.ref(ref, now)
				if (got == nil) != (want == nil) || got != nil && got.ID != want.ID {
					t.Fatalf("%s %d banks tick %d: picked %v, reference %v", sc.name, nb, now, got, want)
				}
				if a, b := sc.rr(sched), sc.rr(ref); a != b {
					t.Fatalf("%s %d banks tick %d: rrBank %d, reference %d", sc.name, nb, now, a, b)
				}
				checkPendingMask(t, sc.rs(sched), int(now))
				switch {
				case got != nil:
					picked++
					chans[0].Enqueue(got)
					chans[1].Enqueue(want)
				case pending > 0:
					blocked++ // every bank holding reads was full
				}
				if now%2 == 0 {
					chans[0].Tick(now)
					chans[1].Tick(now)
				}
			}
			if picked < 500 || blocked < 100 {
				t.Fatalf("%s %d banks: %d picks, %d ticks blocked on full banks; want both busy", sc.name, nb, picked, blocked)
			}
		}
	}
}

// TestPendingFromRotation pins the mask rotation at every start bank for
// bank counts up to the 64 a channel holds, odd counts included.
func TestPendingFromRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nb := range []int{1, 3, 16, 31, 32, 33, 63, 64} {
		rs := NewRowSorter(nb)
		for trial := 0; trial < 20; trial++ {
			rs.pending = rng.Uint64()
			if nb < 64 {
				rs.pending &= 1<<uint(nb) - 1
			}
			for start := 0; start < nb; start++ {
				m := rs.pendingFrom(start)
				for i := 0; i < 64; i++ {
					want := i < nb && rs.pending>>uint((start+i)%nb)&1 == 1
					if got := m>>uint(i)&1 == 1; got != want {
						t.Fatalf("%d banks, pending %#x, start %d: bit %d = %v, want %v", nb, rs.pending, start, i, got, want)
					}
				}
			}
		}
	}
}
