package dram

import (
	"math/rand"
	"testing"

	"dramlat/internal/gddr5"
	"dramlat/internal/memreq"
)

// TestSoABankStateMatchesShadow cross-checks the flattened per-bank state
// against an independent shadow model fed only by the channel's inputs
// (enqueued requests) and observable outputs (issued commands and
// completion callbacks), over randomized traffic, on every tick:
//
//   - OpenRow must track exactly the ACT/PRE command stream;
//   - QueuedTxns must equal enqueues minus completions per bank;
//   - SchedRow must be the row of the bank's last projected miss;
//   - QueuedScore must sum 1 per projected hit and 3 per projected miss
//     over the bank's uncompleted transactions;
//   - HitsSinceAct must count the bursts enqueued since the bank's last
//     projected miss (two per transaction, the miss's own included);
//   - the bank's occupancy bit must be set exactly when QueuedTxns > 0;
//   - a non-empty bank's cached head kind and time must be its head
//     command's type and bank-side bound (actOK for ACT, preOK for PRE,
//     casOK for RD/WR).
//
// The warp scheduler reads SchedRow, QueuedScore and HitsSinceAct on
// every group score; the command scan reads the last two.
func TestSoABankStateMatchesShadow(t *testing.T) {
	const banks = 16
	rng := rand.New(rand.NewSource(42))
	c := NewChannel(gddr5.Default(), banks, 4, 4)

	shadowOpen := make([]int, banks)
	shadowQueued := make([]int, banks)
	shadowRow := make([]int, banks)
	shadowScore := make([]int, banks)
	shadowHits := make([]int, banks)
	txnScore := map[uint64]int{} // request ID -> its projected score
	for b := range shadowOpen {
		shadowOpen[b] = -1
		shadowRow[b] = -1
	}
	c.OnComplete = func(txn *Transaction, at int64) {
		b := txn.Req.Bank
		shadowQueued[b]--
		shadowScore[b] -= txnScore[txn.Req.ID]
		delete(txnScore, txn.Req.ID)
	}

	var id uint64
	for now := int64(0); now < 30000; now++ {
		if rng.Intn(3) == 0 {
			b := rng.Intn(banks)
			if c.CanAccept(b) {
				id++
				row := rng.Intn(8)
				c.Enqueue(&memreq.Request{
					ID: id, Kind: memreq.Kind(rng.Intn(2)),
					Bank: b, Row: row, Col: rng.Intn(64) * 2,
				})
				shadowQueued[b]++
				if shadowRow[b] == row {
					txnScore[id] = 1
					shadowHits[b] += 2
				} else {
					txnScore[id] = 3
					shadowHits[b] = 2
					shadowRow[b] = row
				}
				shadowScore[b] += txnScore[id]
			}
		}
		if cmd := c.Tick(now); cmd != nil {
			switch cmd.Type {
			case CmdACT:
				shadowOpen[cmd.Bank] = cmd.Row
			case CmdPRE:
				shadowOpen[cmd.Bank] = -1
			}
		}
		for b := 0; b < banks; b++ {
			for _, f := range []struct {
				name      string
				got, want int
			}{
				{"OpenRow", c.OpenRow(b), shadowOpen[b]},
				{"QueuedTxns", c.QueuedTxns(b), shadowQueued[b]},
				{"SchedRow", c.SchedRow(b), shadowRow[b]},
				{"QueuedScore", c.QueuedScore(b), shadowScore[b]},
				{"HitsSinceAct", c.HitsSinceAct(b), shadowHits[b]},
			} {
				if f.got != f.want {
					t.Fatalf("t=%d bank %d: %s=%d, shadow %d", now, b, f.name, f.got, f.want)
				}
			}
			occupied := c.occ&c.occBit(b) != 0
			if occupied != (c.QueuedTxns(b) > 0) {
				t.Fatalf("t=%d bank %d: occupancy bit %v with %d queued txns", now, b, occupied, c.QueuedTxns(b))
			}
			if !occupied {
				continue
			}
			head := c.head(b)
			var bound int64
			switch head.Type {
			case CmdACT:
				bound = c.actOK[b]
			case CmdPRE:
				bound = c.preOK[b]
			default:
				bound = c.casOK[b]
			}
			if c.headKind[b] != head.Type || c.headAt[b] != bound {
				t.Fatalf("t=%d bank %d: cached head (%v, %d), head (%v, %d)",
					now, b, c.headKind[b], c.headAt[b], head.Type, bound)
			}
		}
	}
}

// TestCommandPathSteadyStateAllocs pins the zero-alloc property of the
// channel's hot loop: with the transaction freelist and per-bank command
// queues warm, a sustained enqueue/tick/complete cycle must not allocate.
func TestCommandPathSteadyStateAllocs(t *testing.T) {
	const banks = 16
	c := NewChannel(gddr5.Default(), banks, 4, 4)
	// Recycle request objects through a free stack, like the real system's
	// pools do.
	var free []*memreq.Request
	c.OnComplete = func(txn *Transaction, at int64) {
		free = append(free, txn.Req)
	}
	for i := 0; i < 64; i++ {
		free = append(free, &memreq.Request{})
	}
	var id uint64
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	tick := func() {
		if len(free) > 0 {
			b := int(id) % banks
			if c.CanAccept(b) {
				r := free[len(free)-1]
				free = free[:len(free)-1]
				id++
				*r = memreq.Request{ID: id, Kind: memreq.Kind(rng.Intn(2)),
					Bank: b, Row: rng.Intn(4), Col: rng.Intn(64) * 2}
				c.Enqueue(r)
			}
		}
		c.Tick(now)
		now++
	}
	for i := 0; i < 5000; i++ {
		tick() // warm the freelists and queue capacity
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			tick()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state channel tick allocated: %.2f allocs per 100 ticks, want 0", avg)
	}
}
