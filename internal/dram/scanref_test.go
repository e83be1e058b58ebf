package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"dramlat/internal/gddr5"
	"dramlat/internal/memreq"
)

// earliestLegal is the reference statement of the Table II bound of cmd,
// the head of its bank's queue, read straight from the live timing state:
// the head may issue at now exactly when earliestLegal(head) <= now.
func (c *Channel) earliestLegal(cmd *Command) int64 {
	b := cmd.Bank
	switch cmd.Type {
	case CmdACT:
		t := c.actOK[b]
		if v := c.lastACT + int64(c.T.TRRD); v > t {
			t = v
		}
		if v := c.fawWindow[c.fawIdx] + int64(c.T.TFAW); v > t {
			t = v
		}
		return t
	case CmdPRE:
		return c.preOK[b]
	case CmdRD:
		t := c.casOK[b]
		if v := c.lastCASGroup[c.group(b)] + int64(c.T.TCCDL); v > t {
			t = v
		}
		if v := c.lastCASAny + int64(c.T.TCCDS); v > t {
			t = v
		}
		if v := c.wrDataEnd + int64(c.T.TWTR); v > t {
			t = v
		}
		if v := c.busFreeAt - int64(c.T.TCAS); v > t {
			t = v
		}
		return t
	case CmdWR:
		t := c.casOK[b]
		if v := c.lastCASGroup[c.group(b)] + int64(c.T.TCCDL); v > t {
			t = v
		}
		if v := c.lastCASAny + int64(c.T.TCCDS); v > t {
			t = v
		}
		if v := c.lastRDCmd + int64(c.T.TRTW); v > t {
			t = v
		}
		if v := c.busFreeAt - int64(c.T.TWL); v > t {
			t = v
		}
		return t
	}
	return Never
}

// scanRef is the reference bank scan: every bank slot in round-robin
// order, group (rrGroup+i%Groups)%Groups and within-group bank
// (rrBank+i/Groups)%perGroup for step i, each non-empty head priced by
// earliestLegal. scan must return what it returns on every state.
func (c *Channel) scanRef(now int64) (bank int, wake int64) {
	wake = Never
	if len(c.busOnly)-c.boHead > 0 {
		wake = c.busFreeAt - int64(c.T.TCAS)
	}
	perGroup := c.NumBanks / c.Groups
	for i := 0; i < c.NumBanks; i++ {
		g := (c.rrGroup + i%c.Groups) % c.Groups
		bi := g*perGroup + (c.rrBank+i/c.Groups)%perGroup
		if c.queueLen(bi) == 0 {
			continue
		}
		t := c.earliestLegal(c.head(bi))
		if t <= now {
			return bi, wake
		}
		if t < wake {
			wake = t
		}
	}
	return -1, wake
}

// TestScanMatchesReference drives the occupancy-mask scan in lockstep
// with scanRef over random read/write/bus-only streams on several bank
// geometries, and asserts the same (bank, wake) before and after every
// Tick: the same banks issue on the same ticks, and the wake bound is
// the same.
func TestScanMatchesReference(t *testing.T) {
	for _, geo := range []struct{ banks, groups int }{
		{16, 4}, {8, 2}, {32, 4}, {16, 1},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", geo.banks, geo.groups, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := NewChannel(gddr5.Default(), geo.banks, geo.groups, 4)
				// Alternate bursts of heavy and light traffic so the scan
				// sees both crowded and sparse masks.
				rate := 2
				var id uint64
				check := func(now int64, when string) {
					gb, gw := c.scan(now)
					wb, ww := c.scanRef(now)
					if gb != wb || gw != ww {
						t.Fatalf("t=%d %s Tick: scan = (%d, %d), reference (%d, %d); rr=(%d,%d) occ=%#x",
							now, when, gb, gw, wb, ww, c.rrGroup, c.rrBank, c.occ)
					}
				}
				for now := int64(0); now < 20_000; now++ {
					if now%1000 == 0 {
						rate = 1 + rng.Intn(12)
					}
					if rng.Intn(rate) == 0 {
						b := rng.Intn(c.NumBanks)
						if c.CanAccept(b) {
							id++
							kind := memreq.Read
							if rng.Intn(3) == 0 {
								kind = memreq.Write
							}
							c.Enqueue(&memreq.Request{
								ID: id, Kind: kind,
								Bank: b, Row: rng.Intn(4), Col: rng.Intn(64),
							})
						}
					}
					if rng.Intn(40) == 0 {
						id++
						c.EnqueueBusOnly(&memreq.Request{ID: id, Kind: memreq.Read})
					}
					check(now, "before")
					c.Tick(now)
					check(now, "after")
				}
			})
		}
	}
}
