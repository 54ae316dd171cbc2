package timing

import (
	"easydram/internal/clock"
	"easydram/internal/snapshot"
)

// SaveState serializes the checker's full dynamic timing history. The
// bank-group table (groupOf) is a pure function of the geometry and is
// rebuilt by NewChecker, not stored.
func (c *Checker) SaveState(e *snapshot.Enc) {
	e.Int(len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		e.Bool(b.Open)
		e.Int(b.OpenRow)
		e.I64(int64(b.ActRCD))
		for _, t := range b.last {
			e.I64(int64(t))
		}
	}
	e.Int(len(c.lastACTGroup))
	for _, t := range c.lastACTGroup {
		e.I64(int64(t))
	}
	e.I64(int64(c.lastACTAny))
	for _, t := range c.lastColGroup {
		e.I64(int64(t))
	}
	e.I64(int64(c.lastColAny))
	for _, t := range c.actWindow {
		e.I64(int64(t))
	}
	e.Int(c.actIdx)
	e.I64(int64(c.lastBus))
	e.I64(int64(c.lastREF))
}

// LoadState restores history written by SaveState into a freshly
// constructed checker of the same geometry; a geometry mismatch fails the
// decoder (the compatibility key should have caught it earlier).
func (c *Checker) LoadState(d *snapshot.Dec) {
	if n := d.Int(); n != len(c.banks) {
		if d.Err() == nil {
			d.Failf("timing: snapshot has %d banks, checker has %d", n, len(c.banks))
		}
		return
	}
	for i := range c.banks {
		b := &c.banks[i]
		b.Open = d.Bool()
		b.OpenRow = d.Int()
		b.ActRCD = clock.PS(d.I64())
		for j := range b.last {
			b.last[j] = clock.PS(d.I64())
		}
	}
	if n := d.Int(); n != len(c.lastACTGroup) {
		if d.Err() == nil {
			d.Failf("timing: snapshot has %d bank groups, checker has %d", n, len(c.lastACTGroup))
		}
		return
	}
	for i := range c.lastACTGroup {
		c.lastACTGroup[i] = clock.PS(d.I64())
	}
	c.lastACTAny = clock.PS(d.I64())
	for i := range c.lastColGroup {
		c.lastColGroup[i] = clock.PS(d.I64())
	}
	c.lastColAny = clock.PS(d.I64())
	for i := range c.actWindow {
		c.actWindow[i] = clock.PS(d.I64())
	}
	c.actIdx = d.Int()
	c.lastBus = clock.PS(d.I64())
	c.lastREF = clock.PS(d.I64())
	if c.actIdx < 0 || c.actIdx >= len(c.actWindow) {
		d.Failf("timing: actIdx %d out of range", c.actIdx)
	}
}

// SaveState serializes the rank bus's CAS history (minGap is derived from
// the timing parameters and rebuilt by NewRankBus).
func (b *RankBus) SaveState(e *snapshot.Enc) {
	e.Int(b.lastRank)
	e.I64(int64(b.lastCAS))
}

// LoadState restores history written by SaveState.
func (b *RankBus) LoadState(d *snapshot.Dec) {
	b.lastRank = d.Int()
	b.lastCAS = clock.PS(d.I64())
}
