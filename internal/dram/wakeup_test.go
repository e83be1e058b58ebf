package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"dramlat/internal/gddr5"
	"dramlat/internal/memreq"
)

// nextWakeup is the channel's wake bound after Tick(now), as scan states
// it: now+1 when a bank is due, otherwise the scan's wake, never earlier
// than now+1. It is the bound WakeCache memoizes in cmdWake.
func nextWakeup(c *Channel, now int64) int64 {
	if bank, wake := c.scan(now); bank < 0 {
		return max(wake, now+1)
	}
	return now + 1
}

// TestNextWakeupNeverLate property-checks the wakeup contract over random
// request streams: between an enqueue-free tick t and the wakeup
// nextWakeup(t) returned there, Tick must be a no-op. A command issue,
// burst completion, or stats delta strictly before the reported wakeup
// means the event loop would have slept through real work. The bound is
// also exact: with nothing enqueued since, Tick at the wakeup itself must
// issue a command or start a bus-only transfer.
func TestNextWakeupNeverLate(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("stream%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(iter) + 1))
			c := NewChannel(gddr5.Default(), 16, 4, 4)
			c.WakeCache = iter%2 == 0 // exercise the cached and pristine Tick
			completed := 0
			c.OnComplete = func(*Transaction, int64) { completed++ }

			// pred is the earliest tick at which state may legally change:
			// nextWakeup of the last quiet tick, reset to "now" whenever an
			// enqueue (external input) invalidates the bound. fromWake
			// records that pred is nextWakeup's, not an enqueue's.
			pred := int64(0)
			fromWake := false
			var id uint64
			for now := int64(0); now < 30_000; now++ {
				if rng.Intn(6) == 0 {
					bank := rng.Intn(c.NumBanks)
					if c.CanAccept(bank) {
						id++
						kind := memreq.Read
						if rng.Intn(4) == 0 {
							kind = memreq.Write
						}
						c.Enqueue(&memreq.Request{
							ID: id, Kind: kind,
							Bank: bank, Row: rng.Intn(8), Col: rng.Intn(64),
						})
						pred, fromWake = now, false
					}
				}
				if iter%5 == 1 && rng.Intn(50) == 0 {
					id++
					c.EnqueueBusOnly(&memreq.Request{ID: id, Kind: memreq.Read})
					pred, fromWake = now, false
				}
				statsBefore := c.Stats
				doneBefore := completed
				cmd := c.Tick(now)
				changed := cmd != nil || c.Stats != statsBefore || completed != doneBefore
				if changed && now < pred {
					t.Fatalf("state changed at tick %d but wakeup promised quiet until %d (cmd=%v stats %+v -> %+v)",
						now, pred, cmd, statsBefore, c.Stats)
				}
				if fromWake && now == pred && !changed {
					t.Fatalf("nextWakeup promised work at tick %d but Tick was a no-op", now)
				}
				pred, fromWake = nextWakeup(c, now), true
			}
		})
	}
}
