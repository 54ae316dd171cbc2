package bench

import "time"

// refClock converts host time into reference time.
//
// The reference host is a VM on a machine shared with other tenants, and
// they change its speed by up to a half for stretches of seconds to
// minutes: longer than a run, and often longer than a set of runs, so no
// run length averages them out. After each unit, a measured run times a
// fixed loop and scales the unit's host times by refNominal over the
// loop's time. A busy host slows the unit and the loop alike and leaves
// the unit's reference time steady; a change to the emulator moves the
// unit alone, because the loop's code never changes.
//
// The loop mixes the kinds of work whose speed followed the emulator's
// most closely on the reference host, over all five workloads: lookups in
// a set-associative cache model, updates to a Go map of about 10k keys,
// and writes streaming through an 8 MiB ring. Each part runs three times
// over the same inputs. The first time refills the host caches the unit
// evicted, which tracks the host's memory latency as the emulator does;
// only a unit that evicted much less or much more would move it. The loop
// allocates nothing once its map is full, so the emulator's heap and its
// collector do not change the loop's speed.
//
// Set-up is scaled by a reference of its own. Building a system is mostly
// zeroing fresh memory and, for the collector, scanning it, and that work
// follows the host's load differently from the loop's. So each set-up call
// is followed at once by zeroing a fixed buffer of about a system's size,
// and the call's time is scaled by zeroNominal over the zeroing's time.
type refClock struct {
	tags []uint64 // refSets x refWays cache model: line+1, 0 when empty
	age  []uint8  // LRU age per way, 0 the most recent
	m    map[uint64]uint64
	ring []uint64
	off  int
	zbuf []byte
}

const (
	refSets   = 1024
	refWays   = 8
	refOps    = 10_000  // cache lookups, and map updates, per part
	refWrites = 3_000   // 64-byte writes per part
	refRing   = 1 << 20 // words: 8 MiB

	// refNominal is about the loop's time on the reference host when its
	// neighbours are quiet, so that a reference second is about a host
	// second there.
	refNominal = 1500 * time.Microsecond

	// zeroBytes is the set-up reference's buffer, about what one
	// core.NewSystem call allocated (216 KB) when the benchmark was
	// written, and zeroNominal about the time to zero it on the reference
	// host.
	zeroBytes   = 256 << 10
	zeroNominal = 25 * time.Microsecond
)

func newRefClock() *refClock {
	c := &refClock{
		tags: make([]uint64, refSets*refWays),
		age:  make([]uint8, refSets*refWays),
		m:    map[uint64]uint64{},
		ring: make([]uint64, refRing),
		zbuf: make([]byte, zeroBytes),
	}
	for i := range c.age {
		c.age[i] = uint8(i % refWays) // each set's ages are a permutation
	}
	return c
}

// scale times the loop and returns the factor that turns the host seconds
// around it into reference seconds.
func (c *refClock) scale() float64 {
	t0 := time.Now()
	for range 3 {
		c.lookups()
	}
	for range 3 {
		c.mapUpdates()
	}
	for range 3 {
		c.writes()
	}
	return refNominal.Seconds() / time.Since(t0).Seconds()
}

// zero times the set-up reference: zeroing the fixed buffer once.
func (c *refClock) zero() time.Duration {
	t0 := time.Now()
	clear(c.zbuf)
	return time.Since(t0)
}

func (c *refClock) lookups() {
	x := uint64(7)
	for i := 0; i < refOps; i++ {
		x = mix64(x)
		addr := x & (1<<22 - 1)
		if x>>60 < 12 { // three quarters of the lookups stay in 32 KiB
			addr &= 1<<15 - 1
		}
		c.lookup(addr >> 6)
	}
}

// mapUpdates updates refOps draws from a 64Ki key space: about 9.3k keys.
func (c *refClock) mapUpdates() {
	x := uint64(7)
	for i := 0; i < refOps; i++ {
		x = mix64(x)
		c.m[x&(1<<16-1)] += x
	}
}

func (c *refClock) writes() {
	for i := 0; i < refWrites; i++ {
		w := c.ring[c.off : c.off+8]
		clear(w)
		w[0] = uint64(i)
		c.off = (c.off + 8) % refRing
	}
}

// lookup accesses one line of the cache model, with LRU replacement.
func (c *refClock) lookup(line uint64) {
	set := c.tags[line%refSets*refWays:][:refWays]
	age := c.age[line%refSets*refWays:][:refWays]
	way := -1
	for w, tag := range set {
		if tag == line+1 {
			way = w
			break
		}
	}
	if way < 0 {
		way = 0
		for w := range age {
			if age[w] > age[way] {
				way = w
			}
		}
		set[way] = line + 1
	}
	for w := range age {
		if age[w] < age[way] {
			age[w]++
		}
	}
	age[way] = 0
}
