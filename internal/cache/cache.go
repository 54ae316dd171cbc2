// Package cache implements set-associative write-back, write-allocate
// caches with LRU replacement, plus the two-level hierarchy used by the
// modelled processors (L1D + unified L2) including the memory-mapped
// cache-line flush EasyDRAM provides for RowClone coherence (§7.1).
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size; it matches the DRAM burst size.
const LineBytes = 64

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	Flushes    int64
}

// Add accumulates o into s (multi-core results sum the per-core L1
// counters).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Flushes += o.Flushes
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set sequence number; higher = more recently used.
	lru uint64
}

// Cache is one set-associative cache level. Not safe for concurrent use.
type Cache struct {
	name  string
	sets  []line // sets*assoc lines, set-major
	assoc int
	// setMask extracts the set index; tagShift strips line-offset and set
	// bits in one shift (the set count is a power of two, so the tag needs
	// no division).
	setMask  uint64
	tagShift uint
	setCount int
	setShift uint
	lruClock uint64
	stats    Stats
}

// New returns a cache of sizeBytes capacity and the given associativity.
func New(name string, sizeBytes, assoc int) (*Cache, error) {
	if sizeBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("cache %s: size and associativity must be positive", name)
	}
	lines := sizeBytes / LineBytes
	if lines%assoc != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by associativity %d", name, lines, assoc)
	}
	setCount := lines / assoc
	if setCount&(setCount-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d must be a power of two", name, setCount)
	}
	shift := uint(6) // log2(LineBytes)
	return &Cache{
		name:     name,
		sets:     make([]line, lines),
		assoc:    assoc,
		setMask:  uint64(setCount - 1),
		tagShift: shift + uint(bits.TrailingZeros(uint(setCount))),
		setCount: setCount,
		setShift: shift,
	}, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Stats returns a snapshot of event counters.
func (c *Cache) Stats() Stats { return c.stats }

// SizeBytes reports the capacity.
func (c *Cache) SizeBytes() int { return len(c.sets) * LineBytes }

func (c *Cache) setOf(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<c.tagShift | uint64(set)<<c.setShift
}

func (c *Cache) setSlice(set int) []line {
	return c.sets[set*c.assoc : (set+1)*c.assoc]
}

// Victim describes an eviction produced by Access or Install.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// index returns the position of addr's line in c.sets, or -1 when addr
// misses. It changes no replacement state.
func (c *Cache) index(addr uint64) int {
	tag := c.tagOf(addr)
	base := c.setOf(addr) * c.assoc
	for i, l := range c.sets[base : base+c.assoc] {
		if l.valid && l.tag == tag {
			return base + i
		}
	}
	return -1
}

// Lookup reports whether addr hits without changing replacement state.
func (c *Cache) Lookup(addr uint64) bool { return c.index(addr) >= 0 }

// Access performs a demand access. On hit it updates LRU (and the dirty bit
// for writes) and returns hit=true. On miss it returns hit=false and does
// NOT install the line; the caller installs it after the fill completes.
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	tag := c.tagOf(addr)
	ss := c.setSlice(c.setOf(addr))
	for i := range ss {
		if ss[i].valid && ss[i].tag == tag {
			c.lruClock++
			ss[i].lru = c.lruClock
			if write {
				ss[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Install fills addr into the cache, returning the victim (Valid=false when
// an empty way was available).
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	set, tag := c.setOf(addr), c.tagOf(addr)
	ss := c.setSlice(set)
	victimIdx := 0
	var oldest uint64 = ^uint64(0)
	for i := range ss {
		if !ss[i].valid {
			victimIdx = i
			oldest = 0
			break
		}
		if ss[i].lru < oldest {
			oldest = ss[i].lru
			victimIdx = i
		}
	}
	v := Victim{}
	if ss[victimIdx].valid {
		v = Victim{Addr: c.lineAddr(set, ss[victimIdx].tag), Dirty: ss[victimIdx].dirty, Valid: true}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	c.lruClock++
	ss[victimIdx] = line{tag: tag, valid: true, dirty: dirty, lru: c.lruClock}
	return v
}

// accessFill is a read Access followed, on a miss, by Install(addr, false),
// fused into one scan of the set: a hit updates LRU and reports hit=true;
// a miss installs the clean line over the victim Install would choose (the
// first invalid way, otherwise the first least-recently-used way) and
// returns that victim. Either way idx is the line's position in c.sets
// afterwards. Statistics match the two-call sequence exactly.
func (c *Cache) accessFill(addr uint64) (idx int, hit bool, v Victim) {
	set, tag := c.setOf(addr), c.tagOf(addr)
	ss := c.setSlice(set)
	invalid, lruIdx := -1, 0
	var oldest uint64 = ^uint64(0)
	for i := range ss {
		l := &ss[i]
		if !l.valid {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if l.tag == tag {
			c.lruClock++
			l.lru = c.lruClock
			c.stats.Hits++
			return set*c.assoc + i, true, Victim{}
		}
		if l.lru < oldest {
			oldest = l.lru
			lruIdx = i
		}
	}
	c.stats.Misses++
	victimIdx := invalid
	if victimIdx < 0 {
		victimIdx = lruIdx
		old := &ss[victimIdx]
		v = Victim{Addr: c.lineAddr(set, old.tag), Dirty: old.dirty, Valid: true}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	c.lruClock++
	ss[victimIdx] = line{tag: tag, valid: true, lru: c.lruClock}
	return set*c.assoc + victimIdx, false, v
}

// Flush removes addr from the cache if present, reporting whether it was
// present and dirty.
func (c *Cache) Flush(addr uint64) (present, dirty bool) {
	i := c.index(addr)
	if i < 0 {
		return false, false
	}
	return true, c.flushAt(i)
}

// flushAt invalidates the valid line at position i of c.sets, reporting
// whether it was dirty.
func (c *Cache) flushAt(i int) (dirty bool) {
	dirty = c.sets[i].dirty
	c.sets[i] = line{}
	c.stats.Flushes++
	return dirty
}

// DirtyLines returns the addresses of all dirty lines (drain support).
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for set := 0; set < c.setCount; set++ {
		for _, l := range c.setSlice(set) {
			if l.valid && l.dirty {
				out = append(out, c.lineAddr(set, l.tag))
			}
		}
	}
	return out
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = line{}
	}
	c.stats = Stats{}
	c.lruClock = 0
}
