// Package memsys models the memory hierarchy of Table 1: split 32 KB
// two-way L1 instruction and data caches with 64-byte lines, a unified
// 1 MB four-way L2 with 128-byte lines and 12-cycle latency, 64-entry
// prefetch/victim buffers on each level, a 16-entry coalescing store
// buffer, an opportunistic unit-stride prefetcher, and a 180-cycle memory.
// TLBs are perfect (not modeled), as in the paper.
//
// The model is a latency oracle: accesses return the number of cycles
// until data is available, tracking tag state, in-flight fills, and
// buffers, without modeling bank conflicts (the paper's evaluation is
// insensitive to them — the register cache is the structure under study).
package memsys

// Cache is one level of set-associative cache with LRU replacement, a
// FIFO victim/prefetch buffer, and in-flight miss tracking (an MSHR-like
// merge of concurrent misses to the same line).
type Cache struct {
	lineShift uint
	sets      [][]line
	victim    *fifoBuffer
	inflight  map[uint64]uint64 // line address -> cycle the fill completes

	// Statistics.
	Accesses   uint64
	Misses     uint64
	VictimHits uint64
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes     int
	Ways          int
	LineBytes     int
	VictimEntries int // 0 disables the victim/prefetch buffer
}

// NewCache builds a cache level.
func NewCache(cfg CacheConfig) *Cache {
	nlines := cfg.SizeBytes / cfg.LineBytes
	nsets := nlines / cfg.Ways
	sets := make([][]line, nsets)
	backing := make([]line, nlines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		lineShift: shift,
		sets:      sets,
		// Completed fills are promoted (and deleted) lazily at the line's
		// next access, so entries for never-revisited lines persist; a
		// generous size hint keeps steady-state rehashing negligible.
		inflight: make(map[uint64]uint64, 4096),
	}
	if cfg.VictimEntries > 0 {
		c.victim = newFIFOBuffer(cfg.VictimEntries)
	}
	return c
}

// lineAddr returns the line-granular address.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// Lookup probes the cache (and victim buffer) for addr at the given cycle.
// It returns hit=true when data is present; when the line has an in-flight
// fill it returns hit=false with ready set to the fill-completion cycle
// (callers treat max(0, ready-now) as the residual latency and do not
// start a second fill).
func (c *Cache) Lookup(addr, now uint64) (hit bool, ready uint64) {
	c.Accesses++
	la := c.lineAddr(addr)
	set := c.sets[la&uint64(len(c.sets)-1)]
	tag := la / uint64(len(c.sets))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = now
			return true, now
		}
	}
	if c.victim != nil && c.victim.remove(la) {
		c.VictimHits++
		c.install(la, now)
		return true, now
	}
	if rdy, ok := c.inflight[la]; ok {
		if rdy <= now {
			// Fill completed; promote to the array lazily.
			delete(c.inflight, la)
			c.install(la, now)
			return true, now
		}
		return false, rdy
	}
	c.Misses++
	return false, 0
}

// Contains probes without updating LRU or statistics (used by shadow
// structures and tests).
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	set := c.sets[la&uint64(len(c.sets)-1)]
	tag := la / uint64(len(c.sets))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// StartFill records that a fill for addr's line completes at ready. The
// line becomes visible to Lookup at that cycle.
func (c *Cache) StartFill(addr, ready uint64) {
	c.inflight[c.lineAddr(addr)] = ready
}

// FillNow immediately installs addr's line (prefetch-buffer promotion or
// test setup), evicting the set's LRU line into the victim buffer.
func (c *Cache) FillNow(addr, now uint64) { c.install(c.lineAddr(addr), now) }

func (c *Cache) install(la, now uint64) {
	set := c.sets[la&uint64(len(c.sets)-1)]
	tag := la / uint64(len(c.sets))
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto place
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if c.victim != nil && set[victim].valid {
		evicted := set[victim].tag*uint64(len(c.sets)) + la&uint64(len(c.sets)-1)
		c.victim.add(evicted)
	}
place:
	set[victim] = line{tag: tag, valid: true, lru: now}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// fifoBuffer is a fixed-capacity FIFO set of line addresses (the combined
// prefetch/victim buffer of Table 1). At the modeled capacity (64) a
// linear scan over a flat slice beats the map+slice pair it replaces and
// allocates nothing after construction.
type fifoBuffer struct {
	order []uint64
	cap   int
}

func newFIFOBuffer(capacity int) *fifoBuffer {
	return &fifoBuffer{order: make([]uint64, 0, capacity), cap: capacity}
}

func (f *fifoBuffer) add(la uint64) {
	if f.contains(la) {
		return
	}
	if len(f.order) == f.cap {
		copy(f.order, f.order[1:])
		f.order = f.order[:f.cap-1]
	}
	f.order = append(f.order, la)
}

// remove returns true and deletes la if present (preserving FIFO order).
func (f *fifoBuffer) remove(la uint64) bool {
	for i, v := range f.order {
		if v == la {
			copy(f.order[i:], f.order[i+1:])
			f.order = f.order[:len(f.order)-1]
			return true
		}
	}
	return false
}

func (f *fifoBuffer) contains(la uint64) bool {
	for _, v := range f.order {
		if v == la {
			return true
		}
	}
	return false
}
