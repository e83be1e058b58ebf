package cache

import (
	"math/rand"
	"testing"

	"dramlat/internal/memreq"
)

func cfg() Config {
	return Config{SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: 4}
}

func TestHitAfterFill(t *testing.T) {
	c := New(cfg())
	if c.Lookup(0x1000) {
		t.Fatal("hit on empty cache")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x1040) {
		t.Fatal("miss on same line, different offset")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(cfg()) // 8 sets, 4 ways
	setStride := uint64(8 * 128)
	// Fill one set's 4 ways.
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*setStride, false)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Lookup(0)
	v, dirty, ev := c.Fill(4*setStride, false)
	if !ev {
		t.Fatal("no eviction from full set")
	}
	if dirty {
		t.Fatal("clean line evicted dirty")
	}
	if v != 1*setStride {
		t.Fatalf("evicted %#x, want %#x (LRU)", v, setStride)
	}
	if !c.Lookup(0) || c.Lookup(1*setStride) {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(cfg())
	setStride := uint64(8 * 128)
	c.Fill(0, true) // dirty
	for i := 1; i < 4; i++ {
		c.Fill(uint64(i)*setStride, false)
	}
	v, dirty, ev := c.Fill(4*setStride, false)
	if !ev || !dirty || v != 0 {
		t.Fatalf("evicted %#x dirty=%v ev=%v, want dirty 0", v, dirty, ev)
	}
	if c.DirtyEvict != 1 {
		t.Fatalf("DirtyEvict=%d", c.DirtyEvict)
	}
}

func TestFillResidentMergesDirty(t *testing.T) {
	c := New(cfg())
	c.Fill(0x2000, false)
	if _, _, ev := c.Fill(0x2000, true); ev {
		t.Fatal("refill evicted")
	}
	wasDirty, present := c.Invalidate(0x2000)
	if !present || !wasDirty {
		t.Fatalf("dirty=%v present=%v", wasDirty, present)
	}
	if c.Lookup(0x2000) {
		t.Fatal("hit after invalidate")
	}
}

func TestMSHRLifecycle(t *testing.T) {
	c := New(cfg())
	if c.MSHRFor(0x100) != nil {
		t.Fatal("phantom MSHR")
	}
	m := c.MSHRAlloc(0x100)
	if m == nil || m.Line != 0x100 {
		t.Fatalf("alloc %+v", m)
	}
	if c.MSHRFor(0x140) != m {
		t.Fatal("same-line lookup failed (0x140 is in line 0x100)")
	}
	for i := 1; i < 4; i++ {
		if c.MSHRAlloc(uint64(i)*0x1000) == nil {
			t.Fatalf("alloc %d failed below cap", i)
		}
	}
	if c.MSHRAlloc(0x9000) != nil {
		t.Fatal("alloc past cap succeeded")
	}
	if c.MSHRCount() != 4 {
		t.Fatalf("count %d", c.MSHRCount())
	}
	if got := c.MSHRRelease(0x17f); got != m {
		t.Fatalf("release returned %+v", got)
	}
	if c.MSHRFor(0x100) != nil {
		t.Fatal("MSHR survives release")
	}
	if c.MSHRRelease(0x100) != nil {
		t.Fatal("double release returned non-nil")
	}
}

func TestMSHRDoubleAllocPanics(t *testing.T) {
	c := New(cfg())
	c.MSHRAlloc(0x100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double alloc")
		}
	}()
	c.MSHRAlloc(0x140)
}

func TestBadGeometryPanics(t *testing.T) {
	for _, bad := range []Config{
		{SizeBytes: 1000, LineBytes: 128, Ways: 4},
		{SizeBytes: 4096, LineBytes: 128, Ways: 3}, // 32 lines % 3 != 0... actually 32%3!=0
		{SizeBytes: 0, LineBytes: 128, Ways: 4},
	} {
		func() {
			defer func() { recover() }()
			New(bad)
			t.Fatalf("no panic for %+v", bad)
		}()
	}
}

// Property: the cache never holds more than Ways lines per set, a filled
// line is always found until evicted, and hit rate is consistent.
func TestRandomizedConsistency(t *testing.T) {
	c := New(Config{SizeBytes: 2048, LineBytes: 128, Ways: 2, MSHRs: 4})
	rng := rand.New(rand.NewSource(42))
	model := map[uint64]bool{} // resident lines per model
	count := 0
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(64)) * 128
		if rng.Intn(2) == 0 {
			inModel := model[addr]
			got := c.Lookup(addr)
			if got != inModel {
				t.Fatalf("step %d: Lookup(%#x)=%v, model=%v", i, addr, got, inModel)
			}
		} else {
			v, _, ev := c.Fill(addr, false)
			if !model[addr] {
				model[addr] = true
				count++
			}
			if ev {
				if !model[v] {
					t.Fatalf("step %d: evicted non-resident %#x", i, v)
				}
				delete(model, v)
				count--
			}
			if count > 16 {
				t.Fatalf("step %d: more lines resident (%d) than capacity", i, count)
			}
		}
	}
}

func TestHitRate(t *testing.T) {
	c := New(cfg())
	if c.HitRate() != 0 {
		t.Fatal("empty hit rate")
	}
	c.Fill(0, false)
	c.Lookup(0)
	c.Lookup(128 * 1024)
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", c.HitRate())
	}
}

// TestMSHRIndexMatchesMap drives the open-addressed MSHR index in
// lockstep with a reference map through random alloc/lookup/release
// streams. Addresses come from a pool of a few dozen lines, many of them
// chosen to share a home position, so long probe runs form and
// backward-shift deletion must move entries across them (including
// around the end of the table).
func TestMSHRIndexMatchesMap(t *testing.T) {
	for _, mshrs := range []int{1, 3, 8, 64} {
		for seed := int64(0); seed < 4; seed++ {
			c := New(Config{SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: mshrs})
			// Group candidate lines by home position; draw most lines
			// from the two most crowded homes.
			byHome := map[uint64][]uint64{}
			for l := uint64(0); l < 4096; l++ {
				line := l * 128
				byHome[c.index.home(line)] = append(byHome[c.index.home(line)], line)
			}
			var pool []uint64
			for h := uint64(0); h < 2 && h <= c.index.mask; h++ {
				pool = append(pool, byHome[c.index.mask-h][:8]...)
			}
			for l := uint64(0); l < 16; l++ {
				pool = append(pool, (l*977+5)*128)
			}
			rng := rand.New(rand.NewSource(seed))
			ref := map[uint64]*MSHR{}
			for step := 0; step < 20000; step++ {
				addr := pool[rng.Intn(len(pool))] + uint64(rng.Intn(128))
				line := addr &^ 127
				switch rng.Intn(3) {
				case 0:
					if ref[line] != nil {
						continue // double alloc panics (TestMSHRDoubleAllocPanics)
					}
					m := c.MSHRAlloc(addr)
					if full := len(ref) == mshrs; (m == nil) != full {
						t.Fatalf("mshrs=%d seed=%d step %d: alloc %#x = %v with %d of %d live", mshrs, seed, step, line, m, len(ref), mshrs)
					}
					if m != nil {
						if m.Line != line || len(m.Waiters) != 0 {
							t.Fatalf("step %d: fresh MSHR %+v for %#x", step, m, line)
						}
						for _, o := range ref {
							if o.Slot == m.Slot {
								t.Fatalf("step %d: slot %d handed out twice", step, m.Slot)
							}
						}
						ref[line] = m
					}
				case 1:
					if got := c.MSHRFor(addr); got != ref[line] {
						t.Fatalf("mshrs=%d seed=%d step %d: MSHRFor(%#x) = %p, want %p", mshrs, seed, step, addr, got, ref[line])
					}
				case 2:
					if got := c.MSHRRelease(addr); got != ref[line] {
						t.Fatalf("mshrs=%d seed=%d step %d: MSHRRelease(%#x) = %p, want %p", mshrs, seed, step, addr, got, ref[line])
					}
					delete(ref, line)
				}
				if c.MSHRCount() != len(ref) {
					t.Fatalf("step %d: MSHRCount %d, reference %d", step, c.MSHRCount(), len(ref))
				}
			}
			for line, m := range ref {
				if c.MSHRFor(line) != m {
					t.Fatalf("mshrs=%d seed=%d: %#x lost at end", mshrs, seed, line)
				}
			}
		}
	}
}

// TestMSHRSteadyStateAllocs pins that the fixed MSHR table never
// allocates once warm: alloc, waiter merge, lookup and release all reuse
// the registers and their waiter capacity.
func TestMSHRSteadyStateAllocs(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: 16})
	merged := make([]*memreq.Request, 4)
	for i := range merged {
		merged[i] = &memreq.Request{}
	}
	var line uint64
	cycle := func() {
		for i := 0; i < 16; i++ {
			m := c.MSHRAlloc((line + uint64(i)*37) * 128)
			m.Waiters = append(m.Waiters, merged...)
		}
		for i := 0; i < 16; i++ {
			a := (line + uint64(i)*37) * 128
			if c.MSHRFor(a) == nil || c.MSHRRelease(a) == nil {
				t.Fatalf("line %#x lost", a)
			}
		}
		line += 5
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm MSHR alloc/release cycle allocated %.2f times, want 0", avg)
	}
}
