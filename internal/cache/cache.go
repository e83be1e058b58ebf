// Package cache implements the set-associative LRU caches of the memory
// hierarchy (Table II: 32KB 8-way L1 per SM, 128KB 16-way L2 slice per
// memory partition, 128B lines) together with MSHRs that merge concurrent
// misses to the same line.
package cache

import "dramlat/internal/memreq"

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	MSHRs     int // max outstanding distinct miss lines
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  int64 // LRU stamp
}

// MSHR tracks one in-flight miss line and the requests merged into it.
// Owner and Waiters are concrete types, not interfaces: storing a GroupID
// in an interface would heap-box it on every miss.
type MSHR struct {
	Line    uint64
	Owner   memreq.GroupID    // the primary (in-flight) request's group
	Waiters []*memreq.Request // requests merged onto the line, owned by the caller
	// Slot is the register's fixed index in [0, Config.MSHRs): callers
	// key per-miss side tables by it instead of by line address.
	Slot int
}

// Cache is a blocking-free set-associative cache model. It tracks tags
// only; data are not simulated.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lineBits uint
	clock    int64

	// mshrs is the fixed register file. The registers are hardware
	// structures, so the model allocates them once: a miss pops a slot
	// from free, a fill pushes it back, and index maps line -> slot. A
	// released MSHR may be handed out again by the very next MSHRAlloc —
	// callers must finish reading a released MSHR before allocating from
	// the same cache (true of the SM and partition call graphs: releases
	// and the waiter fan-out run strictly between allocs).
	mshrs []MSHR
	free  []int32
	index mshrIndex

	Hits       int64
	Misses     int64
	Evictions  int64
	DirtyEvict int64
}

// New builds a cache; SizeBytes/LineBytes/Ways must describe a power-of-two
// number of sets.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines <= 0 || lines%cfg.Ways != 0 {
		panic("cache: size/line/ways mismatch")
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, nsets),
		setMask:  uint64(nsets - 1),
		lineBits: lb,
		mshrs:    make([]MSHR, cfg.MSHRs),
		free:     make([]int32, cfg.MSHRs),
		index:    newMSHRIndex(cfg.MSHRs, lb),
	}
	// One flat array of lines, carved into capacity-capped sets.
	all := make([]line, lines)
	for i := range c.sets {
		c.sets[i] = all[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	// Pop order hands out slot 0 first.
	for i := range c.free {
		c.free[i] = int32(cfg.MSHRs - 1 - i)
		c.mshrs[i].Slot = i
	}
	return c
}

func (c *Cache) set(addr uint64) ([]line, uint64) {
	tag := addr >> c.lineBits
	return c.sets[tag&c.setMask], tag
}

// Lookup probes for the line containing addr, updating LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.set(addr)
	c.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes without touching LRU or hit/miss counters.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr (marking it dirty when dirty is
// set). It returns the evicted victim's address and dirtiness when a valid
// line was displaced. Filling an already-resident line merges the dirty
// bit instead of evicting.
func (c *Cache) Fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set, tag := c.set(addr)
	c.clock++
	// Already resident: refresh.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			set[i].dirty = set[i].dirty || dirty
			return 0, false, false
		}
	}
	// Pick an invalid way, else the LRU way.
	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	if victimIdx == -1 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[victimIdx].used {
				victimIdx = i
			}
		}
		v := set[victimIdx]
		victim = v.tag << c.lineBits
		victimDirty = v.dirty
		evicted = true
		c.Evictions++
		if v.dirty {
			c.DirtyEvict++
		}
	}
	set[victimIdx] = line{tag: tag, valid: true, dirty: dirty, used: c.clock}
	return victim, victimDirty, evicted
}

// Invalidate drops the line containing addr if resident, returning whether
// it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty = set[i].dirty
			set[i].valid = false
			return wasDirty, true
		}
	}
	return false, false
}

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// --- MSHR management ---

// MSHRFor returns the in-flight MSHR for the line containing addr, or nil.
func (c *Cache) MSHRFor(addr uint64) *MSHR {
	if i := c.index.find(c.mshrs, c.lineOf(addr)); i >= 0 {
		return &c.mshrs[c.index.slots[i]]
	}
	return nil
}

// MSHRAlloc allocates an MSHR for the line containing addr. It returns nil
// when all MSHRs are busy (the miss must be retried later).
func (c *Cache) MSHRAlloc(addr uint64) *MSHR {
	n := len(c.free)
	if n == 0 {
		return nil
	}
	key := c.lineOf(addr)
	if c.index.find(c.mshrs, key) >= 0 {
		panic("cache: MSHR already allocated for line")
	}
	slot := c.free[n-1]
	c.free = c.free[:n-1]
	m := &c.mshrs[slot]
	// Waiter pointers are cleared at reuse time, not release time,
	// because MSHRRelease's caller still reads them.
	ws := m.Waiters
	for i := range ws {
		ws[i] = nil
	}
	*m = MSHR{Line: key, Waiters: ws[:0], Slot: int(slot)}
	c.index.insert(key, slot)
	return m
}

// MSHRRelease removes and returns the MSHR for the line containing addr
// (on fill). It returns nil if none exists.
func (c *Cache) MSHRRelease(addr uint64) *MSHR {
	i := c.index.find(c.mshrs, c.lineOf(addr))
	if i < 0 {
		return nil
	}
	slot := c.index.slots[i]
	c.index.remove(c.mshrs, i)
	c.free = append(c.free, slot)
	return &c.mshrs[slot]
}

// MSHRCount returns the number of in-flight miss lines.
func (c *Cache) MSHRCount() int { return len(c.mshrs) - len(c.free) }

// lineOf returns the address of the line containing addr.
func (c *Cache) lineOf(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// mshrIndex maps in-flight line addresses to MSHR slots: an open-addressed
// table of at least twice the register count (so probe runs stay short),
// linear probing, and backward-shift deletion (no tombstones, so a long
// run never degrades lookups). slots[i] is the slot stored at i, or -1.
type mshrIndex struct {
	slots    []int32
	mask     uint64
	lineBits uint
	shift    uint // 64 - log2(len(slots)), for Fibonacci hashing
}

func newMSHRIndex(mshrs int, lineBits uint) mshrIndex {
	size, logSize := 1, uint(0)
	for size < 2*mshrs {
		size <<= 1
		logSize++
	}
	x := mshrIndex{
		slots:    make([]int32, size),
		mask:     uint64(size - 1),
		lineBits: lineBits,
		shift:    64 - logSize,
	}
	for i := range x.slots {
		x.slots[i] = -1
	}
	return x
}

// home is line's preferred position (0 in a one-entry table: a shift
// by 64 yields 0).
func (x *mshrIndex) home(line uint64) uint64 {
	return ((line >> x.lineBits) * 0x9E3779B97F4A7C15) >> x.shift
}

// find returns line's position in the table, or -1.
func (x *mshrIndex) find(mshrs []MSHR, line uint64) int {
	for i := x.home(line); ; i = (i + 1) & x.mask {
		s := x.slots[i]
		if s < 0 {
			return -1
		}
		if mshrs[s].Line == line {
			return int(i)
		}
	}
}

// insert stores slot under line, which must be absent.
func (x *mshrIndex) insert(line uint64, slot int32) {
	i := x.home(line)
	for x.slots[i] >= 0 {
		i = (i + 1) & x.mask
	}
	x.slots[i] = slot
}

// remove empties position i, shifting later members of its probe run
// back so every remaining line stays reachable from its home.
func (x *mshrIndex) remove(mshrs []MSHR, i int) {
	gap := uint64(i)
	for j := (gap + 1) & x.mask; x.slots[j] >= 0; j = (j + 1) & x.mask {
		// The entry at j may fill the gap unless its home lies
		// cyclically in (gap, j].
		if (j-x.home(mshrs[x.slots[j]].Line))&x.mask >= (j-gap)&x.mask {
			x.slots[gap] = x.slots[j]
			gap = j
		}
	}
	x.slots[gap] = -1
}
