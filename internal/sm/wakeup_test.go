package sm

import (
	"fmt"
	"math/rand"
	"testing"

	"dramlat/internal/addrmap"
	"dramlat/internal/cache"
	"dramlat/internal/memreq"
)

// wakeHarness drives an SM against a fake memory system whose responses
// mature at explicit ticks, mirroring the crossbar's head-only delivery.
type wakeHarness struct {
	sm       *SM
	pendingQ []wakeResp // FIFO of responses; head pops when mature
	injected int
	id       uint64
}

type wakeResp struct {
	req     *memreq.Request
	readyAt int64
}

// fingerprint captures every piece of SM state the event loop relies on,
// except the idle counters (those are batched by CatchUp by design).
func (h *wakeHarness) fingerprint() string {
	s := h.sm
	out := fmt.Sprintf("ii=%d at=%d act=%d rep=%d wtr=%d inj=%d|",
		s.InstrIssued, s.ActiveTicks, s.active, s.ReplayLen(), s.l1.MSHRCount(), h.injected)
	for _, w := range s.warps {
		out += fmt.Sprintf("w%d:%d,%d,%v,%v,%d;", w.ID, s.pc[w.ID], w.Issued, w.Blocked(), w.Done(), s.readyAt[w.ID])
	}
	return out
}

// TestSMNextWakeupNeverLate property-checks SM.NextWakeup over random
// programs, response latencies and crossbar rejections: on any tick with
// no external input (a response delivery or a freed crossbar slot), the
// SM's state must stay frozen until the wakeup it reported. Streams 20
// and up hold each rejection state for tens of ticks, so a replay head
// blocked on the crossbar really sleeps through long back-pressure
// streaks; each of them must do so at least once.
func TestSMNextWakeupNeverLate(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		iter := iter
		streaky := iter >= 20
		t.Run(fmt.Sprintf("stream%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(iter) + 1))
			h := &wakeHarness{}
			reject := false
			rejected := false // an injection failed since the last slot wake
			slept := 0        // ticks a blocked replay head slept through
			var pendingInject []*memreq.Request
			cfg := Config{
				ID:     0,
				Mapper: addrmap.New(6, 16),
				L1: cache.Config{
					SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: 8,
				},
				L1Lat:    4,
				WarpSize: 32,
				Inject: func(r *memreq.Request, now int64) bool {
					if reject {
						rejected = true
						return false
					}
					h.injected++
					pendingInject = append(pendingInject, r)
					return true
				},
				NextID: func() uint64 { h.id++; return h.id },
			}
			var progs []Program
			for w := 0; w < 4; w++ {
				var p Program
				for len(p) < 6 {
					switch rng.Intn(3) {
					case 0:
						p = append(p, Insn{Kind: Compute})
					case 1:
						n := 1 + rng.Intn(6)
						addrs := make([]uint64, n)
						for i := range addrs {
							addrs[i] = uint64(rng.Intn(1<<14)) * 128
						}
						p = append(p, Insn{Kind: Load, Addrs: addrs})
					case 2:
						p = append(p, Insn{Kind: Store, Addrs: []uint64{uint64(rng.Intn(1<<14)) * 128}})
					}
				}
				progs = append(progs, p)
			}
			h.sm = New(cfg, progs)

			pred := int64(0) // earliest tick state may change
			for now := int64(0); now < 5000 && !h.sm.Done(); now++ {
				// Turn injected requests into future responses (reads only;
				// writes are fire-and-forget).
				for _, r := range pendingInject {
					if r.Kind == memreq.Read && !r.CreditOnly {
						h.pendingQ = append(h.pendingQ, wakeResp{r, now + int64(5+rng.Intn(40))})
					}
				}
				pendingInject = pendingInject[:0]
				if !streaky {
					reject = rng.Intn(10) == 0
				} else if rng.Intn(40) == 0 {
					reject = !reject
				}

				var resp *memreq.Request
				if len(h.pendingQ) > 0 && h.pendingQ[0].readyAt <= now {
					resp = h.pendingQ[0].req
					h.pendingQ = h.pendingQ[1:]
				}
				effPred := pred
				if resp != nil {
					effPred = now // external input invalidates the bound
				}
				if rejected && !reject {
					// The first accepting tick after a rejection frees the
					// slot a blocked head waits on: the external wake the
					// system loop models with PopPart lowering RespWake.
					effPred = now
					rejected = false
				}
				if now < effPred && h.sm.ReplayLen() > 0 {
					slept++
				}
				before := h.fingerprint()
				h.sm.Tick(now, resp)
				if after := h.fingerprint(); after != before && now < effPred {
					t.Fatalf("SM state changed at tick %d but wakeup promised quiet until %d\nbefore: %s\nafter:  %s",
						now, effPred, before, after)
				}
				pred = h.sm.NextWakeup(now)
				if pred <= now {
					t.Fatalf("NextWakeup(%d) = %d, not strictly in the future", now, pred)
				}
				// The response path is the external wake source the system
				// loop models with Xbar.RespWake: fold the head in.
				if len(h.pendingQ) > 0 && h.pendingQ[0].readyAt < pred {
					pred = h.pendingQ[0].readyAt
				}
			}
			if streaky && slept == 0 {
				t.Fatal("no tick slept on a blocked replay head")
			}
		})
	}
}
