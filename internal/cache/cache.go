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
// Both fields are concrete types, not interfaces: storing a GroupID in an
// interface would heap-box it on every miss.
type MSHR struct {
	Line    uint64
	Owner   memreq.GroupID    // the primary (in-flight) request's group
	Waiters []*memreq.Request // requests merged onto the line, owned by the caller
}

// Cache is a blocking-free set-associative cache model. It tracks tags
// only; data are not simulated.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lineBits uint
	clock    int64

	mshrs map[uint64]*MSHR
	// mshrFree recycles released MSHRs: misses dominate the simulator's
	// steady-state allocation profile, and the registers are fixed
	// hardware structures, so the model should not allocate per miss
	// either. A released MSHR may be handed out again by the very next
	// MSHRAlloc — callers must finish reading a released MSHR before
	// allocating from the same cache (true of the SM and partition call
	// graphs: releases and the waiter fan-out run strictly between
	// allocs).
	mshrFree []*MSHR

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
		mshrs:    make(map[uint64]*MSHR),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
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

// MarkDirty sets the dirty bit of a resident line (write hit).
func (c *Cache) MarkDirty(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			return true
		}
	}
	return false
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
	return c.mshrs[addr&^uint64(c.cfg.LineBytes-1)]
}

// MSHRAlloc allocates an MSHR for the line containing addr. It returns nil
// when all MSHRs are busy (the miss must be retried later).
func (c *Cache) MSHRAlloc(addr uint64) *MSHR {
	if len(c.mshrs) >= c.cfg.MSHRs {
		return nil
	}
	key := addr &^ uint64(c.cfg.LineBytes-1)
	if _, ok := c.mshrs[key]; ok {
		panic("cache: MSHR already allocated for line")
	}
	var m *MSHR
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		// Waiter pointers are cleared at reuse time, not release time,
		// because MSHRRelease's caller still reads them.
		ws := m.Waiters
		for i := range ws {
			ws[i] = nil
		}
		*m = MSHR{Line: key, Waiters: ws[:0]}
	} else {
		m = &MSHR{Line: key}
	}
	c.mshrs[key] = m
	return m
}

// MSHRRelease removes and returns the MSHR for the line containing addr
// (on fill). It returns nil if none exists.
func (c *Cache) MSHRRelease(addr uint64) *MSHR {
	key := addr &^ uint64(c.cfg.LineBytes-1)
	m := c.mshrs[key]
	if m != nil {
		delete(c.mshrs, key)
		c.mshrFree = append(c.mshrFree, m)
	}
	return m
}

// MSHRCount returns the number of in-flight miss lines.
func (c *Cache) MSHRCount() int { return len(c.mshrs) }
