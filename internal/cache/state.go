package cache

import "easydram/internal/snapshot"

// Checkpoint hooks. Geometry (set count, associativity, masks) is rebuilt
// from configuration; only the tag words, the recency words, and the event
// counters serialize.

// SaveState serializes one cache level's dynamic state.
func (c *Cache) SaveState(e *snapshot.Enc) {
	e.Int(len(c.tags))
	for _, w := range c.tags {
		e.U64(w)
	}
	for _, r := range c.recency {
		e.U64(r)
	}
	e.I64(c.stats.Hits)
	e.I64(c.stats.Misses)
	e.I64(c.stats.Evictions)
	e.I64(c.stats.Writebacks)
	e.I64(c.stats.Flushes)
}

// LoadState restores state written by SaveState into a freshly constructed
// cache of the same geometry. A tag word with flags but no valid bit, or a
// recency word that is not an ordering of the set's ways, fails the decode.
func (c *Cache) LoadState(d *snapshot.Dec) {
	if n := d.Int(); n != len(c.tags) {
		if d.Err() == nil {
			d.Failf("cache %s: snapshot has %d lines, cache has %d", c.name, n, len(c.tags))
		}
		return
	}
	for i := range c.tags {
		w := d.U64()
		if w&validBit == 0 && w != 0 && d.Err() == nil {
			d.Failf("cache %s: line %d has tag word %#x without its valid bit", c.name, i, w)
		}
		c.tags[i] = w
	}
	for set := range c.recency {
		r := d.U64()
		if !c.isOrdering(r) && d.Err() == nil {
			d.Failf("cache %s: set %d has recency word %#x, not an ordering of %d ways", c.name, set, r, c.assoc)
		}
		c.recency[set] = r
	}
	c.stats.Hits = d.I64()
	c.stats.Misses = d.I64()
	c.stats.Evictions = d.I64()
	c.stats.Writebacks = d.I64()
	c.stats.Flushes = d.I64()
}

// isOrdering reports whether r lists each way number below c.assoc once,
// in nibbles 0..assoc-1, with every higher nibble zero.
func (c *Cache) isOrdering(r uint64) bool {
	var seen uint
	for i := 0; i < c.assoc; i++ {
		seen |= 1 << (r >> (4 * i) & 15)
	}
	return seen == 1<<c.assoc-1 && r>>c.tailShift>>4 == 0
}

// SaveState serializes both hierarchy levels (wbScratch is per-access
// scratch and holds nothing across steps).
func (h *Hierarchy) SaveState(e *snapshot.Enc) {
	h.l1.SaveState(e)
	h.l2.SaveState(e)
}

// LoadState restores state written by SaveState.
func (h *Hierarchy) LoadState(d *snapshot.Dec) {
	h.l1.LoadState(d)
	h.l2.LoadState(d)
}
