package core

import (
	"math/rand"
	"testing"

	"dramlat/internal/memreq"
)

// Property: at any point in any random schedule, the incrementally cached
// group score must equal the brute-force scan. The noScoreCache knob IS
// the brute path (it forces refreshScoreCache on every query), so querying
// the cached value first and the forced recomputation second exposes any
// missed invalidation: a stale-valid cache answers before the brute pass
// can repair it.
func TestScoreCacheMatchesBruteForce(t *testing.T) {
	variants := map[string]func() *WarpScheduler{
		"wg":    func() *WarpScheduler { return New() },
		"wg-bw": func() *WarpScheduler { return New(WithMERB()) },
		"wg-w":  func() *WarpScheduler { return New(WithMERB(), WithWriteAware()) },
	}
	for name, mk := range variants {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + 7))
			w := mk()
			ctl := newCtl(w)
			var serial uint32
			var openGroups []memreq.GroupID
			for now := int64(0); now < 20000; now++ {
				if rng.Intn(4) == 0 {
					serial++
					g := gid(uint16(rng.Intn(6)), serial)
					n := rng.Intn(5) + 1
					closed := rng.Intn(3) != 0 // some groups stay incomplete
					for i := 0; i < n; i++ {
						ctl.AcceptRead(rd(rng.Intn(16), rng.Intn(6), rng.Intn(16)*4,
							g, closed && i == n-1), now)
					}
					if !closed {
						openGroups = append(openGroups, g)
					}
				}
				if rng.Intn(16) == 0 {
					ctl.AcceptWrite(wr(rng.Intn(16), rng.Intn(6)), now)
				}
				// Occasionally complete an open group via the L2 credit path.
				if len(openGroups) > 0 && rng.Intn(8) == 0 {
					i := rng.Intn(len(openGroups))
					ctl.GroupComplete(openGroups[i], now)
					openGroups = append(openGroups[:i], openGroups[i+1:]...)
				}
				ctl.Tick(now)
				for _, g := range w.order {
					cachedScore, cachedHits := w.scoreAndHits(g, now)
					w.noScoreCache = true
					bruteScore, bruteHits := w.scoreAndHits(g, now)
					w.noScoreCache = false
					if cachedScore != bruteScore || cachedHits != bruteHits {
						t.Fatalf("%s seed %d t=%d group %v: cached (%d,%d) != brute (%d,%d)",
							name, seed, now, g.id, cachedScore, cachedHits, bruteScore, bruteHits)
					}
				}
			}
		}
	}
}

// The cache must be behaviorally invisible: a cached and an uncached
// scheduler fed identical traffic must produce identical completion
// sequences and selection counts.
func TestScoreCacheLockstep(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed + 400))
		wc, wn := New(WithMERB()), New(WithMERB())
		wn.noScoreCache = true
		cc, cn := newCtl(wc), newCtl(wn)
		var orderC, orderN []uint64
		cc.OnReadDone = func(r *memreq.Request, _ int64) { orderC = append(orderC, r.ID) }
		cn.OnReadDone = func(r *memreq.Request, _ int64) { orderN = append(orderN, r.ID) }

		var serial uint32
		for now := int64(0); now < 50000; now++ {
			if rng.Intn(4) == 0 {
				serial++
				g := gid(uint16(rng.Intn(6)), serial)
				n := rng.Intn(5) + 1
				for i := 0; i < n; i++ {
					bank, row, col := rng.Intn(16), rng.Intn(6), rng.Intn(16)*4
					last := i == n-1
					// Build two distinct request values with the same identity
					// so the controllers cannot alias state through pointers.
					ra := rd(bank, row, col, g, last)
					rb := *ra
					okA := cc.AcceptRead(ra, now)
					okB := cn.AcceptRead(&rb, now)
					if okA != okB {
						t.Fatalf("seed %d t=%d: accept diverged (%v vs %v)", seed, now, okA, okB)
					}
				}
			}
			cc.Tick(now)
			cn.Tick(now)
		}
		if len(orderC) != len(orderN) {
			t.Fatalf("seed %d: %d vs %d completions", seed, len(orderC), len(orderN))
		}
		for i := range orderC {
			if orderC[i] != orderN[i] {
				t.Fatalf("seed %d: completion order diverges at %d: %d vs %d",
					seed, i, orderC[i], orderN[i])
			}
		}
		if wc.Stats.GroupsSelected != wn.Stats.GroupsSelected {
			t.Fatalf("seed %d: selections %d vs %d", seed,
				wc.Stats.GroupsSelected, wn.Stats.GroupsSelected)
		}
	}
}
