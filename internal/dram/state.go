package dram

import (
	"easydram/internal/clock"
	"easydram/internal/snapshot"
)

// Checkpoint hooks for the behavioural rank model. The variation model is a
// pure function of (seed, coordinates) and is rebuilt from configuration;
// everything dynamic — bank state, the lazily allocated row-data store and
// disturb counters, the fault model's read counter, the timing checker's
// command history, and the event statistics — serializes here. Lazy tables
// are stored sparsely (only allocated rows / touched banks), walked in
// ascending order so a given chip state always encodes to identical bytes.

// SaveState serializes the chip's full dynamic state.
func (c *Chip) SaveState(e *snapshot.Enc) {
	e.Int(len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		e.Int(b.openRow)
		e.Int(b.lastActRow)
		e.I64(int64(b.lastActTime))
		e.I64(int64(b.lastPreTime))
		e.Bool(b.senseAmpsHold)
		e.I64(int64(b.preGap))
	}
	c.saveStats(e)

	// Row-data store: (bank, row, bytes) for every allocated row.
	var nRows int
	c.walkRows(func(bank, row int, data []byte) { nRows++ })
	e.Int(nRows)
	c.walkRows(func(bank, row int, data []byte) {
		e.Int(bank)
		e.Int(row)
		e.Bytes(data)
	})

	// Disturb counters: per touched bank, the nonzero (row, count) pairs.
	e.Bool(c.fm != nil)
	if c.fm != nil {
		c.fm.SaveState(e)
		var nBanks int
		for _, d := range c.disturb {
			if d != nil {
				nBanks++
			}
		}
		e.Int(nBanks)
		for bank, d := range c.disturb {
			if d == nil {
				continue
			}
			e.Int(bank)
			var nz int
			for _, v := range d {
				if v != 0 {
					nz++
				}
			}
			e.Int(nz)
			for row, v := range d {
				if v != 0 {
					e.Int(row)
					e.I64(int64(v))
				}
			}
		}
	}

	c.checker.SaveState(e)
}

// LoadState restores state written by SaveState into a freshly constructed
// chip of the same configuration. Geometry violations fail the decoder.
func (c *Chip) LoadState(d *snapshot.Dec) {
	if n := d.Int(); n != len(c.banks) {
		if d.Err() == nil {
			d.Failf("dram: snapshot has %d banks, chip has %d", n, len(c.banks))
		}
		return
	}
	for i := range c.banks {
		b := &c.banks[i]
		b.openRow = d.Int()
		b.lastActRow = d.Int()
		b.lastActTime = clock.PS(d.I64())
		b.lastPreTime = clock.PS(d.I64())
		b.senseAmpsHold = d.Bool()
		b.preGap = clock.PS(d.I64())
		b.openData, b.openDataRow = nil, -1
	}
	c.loadStats(d)

	nRows := d.Int()
	if d.Err() != nil {
		return
	}
	if nRows < 0 || nRows > d.Remaining()/20 {
		d.Fail(snapshot.ErrTruncated)
		return
	}
	for i := 0; i < nRows; i++ {
		bank := d.Int()
		row := d.Int()
		data := d.BytesView()
		if d.Err() != nil {
			return
		}
		if bank < 0 || bank >= len(c.banks) || row < 0 || row >= c.cfg.RowsPerBank {
			d.Failf("dram: row entry (%d,%d) out of range", bank, row)
			return
		}
		if len(data) != c.RowBytes() {
			d.Failf("dram: row entry (%d,%d) holds %d bytes, want %d", bank, row, len(data), c.RowBytes())
			return
		}
		copy(c.rowData(bank, row), data)
	}

	hadFM := d.Bool()
	if d.Err() != nil {
		return
	}
	if hadFM != (c.fm != nil) {
		d.Failf("dram: snapshot fault-injection presence %v, chip %v", hadFM, c.fm != nil)
		return
	}
	if c.fm != nil {
		c.fm.LoadState(d)
		nBanks := d.Int()
		if d.Err() != nil {
			return
		}
		if nBanks < 0 || nBanks > len(c.banks) {
			d.Failf("dram: %d disturb banks out of range", nBanks)
			return
		}
		for i := 0; i < nBanks; i++ {
			bank := d.Int()
			nz := d.Int()
			if d.Err() != nil {
				return
			}
			if bank < 0 || bank >= len(c.banks) {
				d.Failf("dram: disturb bank %d out of range", bank)
				return
			}
			if nz < 0 || nz > d.Remaining()/16 {
				d.Fail(snapshot.ErrTruncated)
				return
			}
			arr := c.disturb[bank]
			if arr == nil {
				arr = make([]int32, c.cfg.RowsPerBank)
				c.disturb[bank] = arr
			}
			for j := 0; j < nz; j++ {
				row := d.Int()
				v := d.I64()
				if d.Err() != nil {
					return
				}
				if row < 0 || row >= c.cfg.RowsPerBank {
					d.Failf("dram: disturb row %d out of range", row)
					return
				}
				arr[row] = int32(v)
			}
		}
	}

	c.checker.LoadState(d)
}

// walkRows visits every allocated row of the lazy data store in ascending
// (bank, row) order.
func (c *Chip) walkRows(fn func(bank, row int, data []byte)) {
	for bank, bt := range c.rows {
		if bt == nil {
			continue
		}
		for ci, ch := range bt {
			if ch == nil {
				continue
			}
			for ri, data := range ch {
				if data == nil {
					continue
				}
				fn(bank, ci<<rowChunkShift|ri, data)
			}
		}
	}
}

func (c *Chip) saveStats(e *snapshot.Enc) {
	s := &c.stats
	for _, v := range []int64{
		s.ACTs, s.PREs, s.RDs, s.WRs, s.REFs,
		s.RowClones, s.RowCloneFails, s.BitwiseOps, s.BitwiseFails,
		s.CorruptedReads, s.TimingViolations, s.RankSwitchViolations,
		s.DisturbFlips, s.TransientReads, s.StuckReads,
	} {
		e.I64(v)
	}
}

func (c *Chip) loadStats(d *snapshot.Dec) {
	s := &c.stats
	for _, p := range []*int64{
		&s.ACTs, &s.PREs, &s.RDs, &s.WRs, &s.REFs,
		&s.RowClones, &s.RowCloneFails, &s.BitwiseOps, &s.BitwiseFails,
		&s.CorruptedReads, &s.TimingViolations, &s.RankSwitchViolations,
		&s.DisturbFlips, &s.TransientReads, &s.StuckReads,
	} {
		*p = d.I64()
	}
}

// SaveState serializes the module: every rank's chip state plus the shared
// bus's CAS history and violation counter.
func (m *Module) SaveState(e *snapshot.Enc) {
	e.Int(len(m.ranks))
	for _, c := range m.ranks {
		c.SaveState(e)
	}
	e.I64(m.busViolations)
	e.Bool(m.bus != nil)
	if m.bus != nil {
		m.bus.SaveState(e)
	}
}

// LoadState restores state written by SaveState.
func (m *Module) LoadState(d *snapshot.Dec) {
	if n := d.Int(); n != len(m.ranks) {
		if d.Err() == nil {
			d.Failf("dram: snapshot has %d ranks, module has %d", n, len(m.ranks))
		}
		return
	}
	for _, c := range m.ranks {
		c.LoadState(d)
		if d.Err() != nil {
			return
		}
	}
	m.busViolations = d.I64()
	hadBus := d.Bool()
	if d.Err() != nil {
		return
	}
	if hadBus != (m.bus != nil) {
		d.Failf("dram: snapshot bus presence %v, module %v", hadBus, m.bus != nil)
		return
	}
	if m.bus != nil {
		m.bus.LoadState(d)
	}
}
