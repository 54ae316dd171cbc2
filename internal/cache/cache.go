// Package cache implements set-associative write-back, write-allocate
// caches with exact LRU replacement, plus the two-level hierarchy used by
// the modelled processors (L1D + unified L2) including the memory-mapped
// cache-line flush EasyDRAM provides for RowClone coherence (§7.1).
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size; it matches the DRAM burst size.
const LineBytes = 64

// lineShift is log2(LineBytes): an address's line number is addr>>lineShift.
const lineShift = 6

// maxAssoc is the largest associativity a recency word holds: one 4-bit
// way number per way.
const maxAssoc = 16

// Tag-word flag bits. A way's tag word is tag<<2 | dirty<<1 | valid, so an
// invalid way is the zero word.
const (
	validBit = 1
	dirtyBit = 2
)

// nibbles has a 1 in every 4-bit field; w*nibbles repeats way number w in
// all sixteen.
const nibbles = 0x1111111111111111

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

// Cache is one set-associative cache level. Not safe for concurrent use.
//
// Its state is two arrays. tags holds one tag word per way, set-major: way
// w of set s is tags[s*assoc+w], its "position". recency holds one word
// per set listing the set's way numbers, one per nibble, from the most
// recently used (nibble 0) to the least (nibble assoc-1).
//
// Access and accessFill first compare the tag word of the way nibble 0
// names, the set's most recently used way, and scan the set only when that
// way does not hold the line. The probe is exact: a line sits in at most
// one way of its set, nibble 0 always names a way below assoc, and a
// flushed way keeps its nibble but its tag word is zero, which never
// equals a key (keys carry validBit). A hit there needs no touch: moving
// nibble 0 to the front leaves the recency word as it is. index keeps the
// plain scan: it runs far less often than Access, and without the probe
// it stays small enough to inline into WouldMiss and Flush.
type Cache struct {
	name    string
	tags    []uint64
	recency []uint64
	assoc   int
	// setMask extracts the set index from the line number; tagShift
	// strips line-offset and set bits in one shift (the set count is a
	// power of two, so the tag needs no division).
	setMask  uint64
	tagShift uint
	// tailShift is the bit offset of the recency word's last nibble, the
	// set's least recently used way.
	tailShift uint
	stats     Stats
}

// New returns a cache of sizeBytes capacity and the given associativity.
// The size must be a whole number of lines, the set count a power of two,
// and the associativity at most 16.
func New(name string, sizeBytes, assoc int) (*Cache, error) {
	if sizeBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("cache %s: size and associativity must be positive", name)
	}
	if assoc > maxAssoc {
		return nil, fmt.Errorf("cache %s: associativity %d exceeds %d", name, assoc, maxAssoc)
	}
	if sizeBytes%LineBytes != 0 {
		return nil, fmt.Errorf("cache %s: size %d is not a whole number of %d-byte lines", name, sizeBytes, LineBytes)
	}
	lines := sizeBytes / LineBytes
	if lines%assoc != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by associativity %d", name, lines, assoc)
	}
	setCount := lines / assoc
	if setCount&(setCount-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d must be a power of two", name, setCount)
	}
	// Every set starts with its ways in index order. The order of invalid
	// ways never matters: a fill takes the first invalid way by index.
	var order uint64
	for w := 0; w < assoc; w++ {
		order |= uint64(w) << (4 * w)
	}
	recency := make([]uint64, setCount)
	for i := range recency {
		recency[i] = order
	}
	return &Cache{
		name:      name,
		tags:      make([]uint64, lines),
		recency:   recency,
		assoc:     assoc,
		setMask:   uint64(setCount - 1),
		tagShift:  lineShift + uint(bits.TrailingZeros(uint(setCount))),
		tailShift: 4 * uint(assoc-1),
	}, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Stats returns a snapshot of event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Variable shift counts in the per-access helpers are masked to 63, which
// they never exceed, so the compiler emits bare shifts without Go's guard
// for counts of 64 and more.

func (c *Cache) setOf(addr uint64) int {
	return int(addr >> lineShift & c.setMask)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> (c.tagShift & 63)
}

func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<(c.tagShift&63) | uint64(set)<<lineShift
}

// key returns the tag word of addr's line with both flag bits set: a way
// holds the line exactly when its word ORed with dirtyBit equals the key.
func (c *Cache) key(addr uint64) uint64 {
	return c.tagOf(addr)<<2 | validBit | dirtyBit
}

// touch moves way w to the front of set's recency word. The way's nibble
// is the word's lowest nibble equal to w (the unused nibbles above assoc-1
// are zero, so they can equal w only above it): XOR with w in every nibble
// zeroes it, and the borrow test below finds the lowest zero nibble
// exactly. The nibbles up to and including it (mask) shift up by one, and
// w fills nibble 0.
func (c *Cache) touch(set int, w uint64) {
	r := c.recency[set]
	x := r ^ w*nibbles
	at := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	mask := ^uint64(0) >> ((60 - at) & 63)
	c.recency[set] = r&^mask | r<<4&mask | w
}

// Victim describes an eviction produced by Access or Install.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// index returns the position of addr's line in c.tags, or -1 when addr
// misses. It changes no replacement state.
func (c *Cache) index(addr uint64) int {
	key := c.key(addr)
	base := c.setOf(addr) * c.assoc
	for i, w := range c.tags[base : base+c.assoc] {
		if w|dirtyBit == key {
			return base + i
		}
	}
	return -1
}

// Lookup reports whether addr hits without changing replacement state.
func (c *Cache) Lookup(addr uint64) bool { return c.index(addr) >= 0 }

// Access performs a demand access. On hit it makes the line the most
// recently used (and dirties it for writes) and returns hit=true. On miss it
// returns hit=false and does NOT install the line; the caller installs it
// after the fill completes.
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	set, key := c.setOf(addr), c.key(addr)
	base := set * c.assoc
	if mru := base + int(c.recency[set]&15); c.tags[mru]|dirtyBit == key {
		if write {
			c.tags[mru] = key
		}
		c.stats.Hits++
		return true
	}
	for i, w := range c.tags[base : base+c.assoc] {
		if w|dirtyBit == key {
			if write {
				c.tags[base+i] = key
			}
			c.touch(set, uint64(i))
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Install fills addr, which must miss, into the cache, returning the victim
// (Valid=false when an empty way was available).
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	set := c.setOf(addr)
	base := set * c.assoc
	invalid := -1
	for i, w := range c.tags[base : base+c.assoc] {
		if w == 0 {
			invalid = i
			break
		}
	}
	word := c.tagOf(addr)<<2 | validBit
	if dirty {
		word |= dirtyBit
	}
	_, v := c.fill(set, invalid, word)
	return v
}

// accessFill is a read Access followed, on a miss, by Install(addr, false),
// fused into one scan of the set: a hit makes the line the most recently
// used and reports hit=true; a miss installs the clean line over the victim
// Install would choose and returns that victim. Either way idx is the
// line's position in c.tags afterwards. Statistics match the two-call
// sequence exactly.
func (c *Cache) accessFill(addr uint64) (idx int, hit bool, v Victim) {
	set, key := c.setOf(addr), c.key(addr)
	base := set * c.assoc
	if mru := base + int(c.recency[set]&15); c.tags[mru]|dirtyBit == key {
		c.stats.Hits++
		return mru, true, Victim{}
	}
	invalid := -1
	for i, w := range c.tags[base : base+c.assoc] {
		if w|dirtyBit == key {
			c.touch(set, uint64(i))
			c.stats.Hits++
			return base + i, true, Victim{}
		}
		if w == 0 && invalid < 0 {
			invalid = i
		}
	}
	c.stats.Misses++
	idx, v = c.fill(set, invalid, key&^dirtyBit)
	return idx, false, v
}

// fill writes tag word word into set's way invalid or, when invalid is -1
// (the set is full), over the least recently used way, which it evicts. The
// filled way becomes the most recently used. fill returns its position in
// c.tags and the evicted line.
func (c *Cache) fill(set, invalid int, word uint64) (idx int, v Victim) {
	way := invalid
	if way < 0 {
		way = int(c.recency[set] >> (c.tailShift & 63) & 15)
		old := c.tags[set*c.assoc+way]
		v = Victim{Addr: c.lineAddr(set, old>>2), Dirty: old&dirtyBit != 0, Valid: true}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	idx = set*c.assoc + way
	c.tags[idx] = word
	c.touch(set, uint64(way))
	return idx, v
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

// flushAt invalidates the valid line at position i of c.tags, reporting
// whether it was dirty. The way keeps its place in the recency word.
func (c *Cache) flushAt(i int) (dirty bool) {
	dirty = c.tags[i]&dirtyBit != 0
	c.tags[i] = 0
	c.stats.Flushes++
	return dirty
}
