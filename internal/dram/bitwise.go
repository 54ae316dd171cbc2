package dram

import "easydram/internal/clock"

// In-DRAM bulk bitwise operations (ComputeDRAM / Ambit class, the paper's
// §9 "other related works"): an ACT-PRE-ACT sequence with gaps even shorter
// than RowClone's glitches the row decoder into activating THREE rows
// simultaneously — the two addressed rows plus the row whose address is the
// bitwise OR of the two — and charge sharing leaves every cell at the
// majority value of the three rows. With a control row preset to all-zeros
// the result is AND of the other two; preset to all-ones it is OR.
//
// This file adds the chip-level physics; the Bender builder emits the
// sequence (bender.Builder.BitwiseMAJ) and package techniques wraps it.

// bitwiseEarlyGap is the maximum ACT->PRE and PRE->ACT spacing that
// triggers simultaneous many-row activation (back-to-back command slots at
// DDR4-1333; RowClone's windows are wider).
const bitwiseEarlyGap = 2 * clock.Nanosecond

// TripleRow reports the third row a (r1, r2) many-row activation drags in:
// the row-decoder glitch activates the address-wise OR.
func TripleRow(r1, r2 int) int { return r1 | r2 }

// bitwiseMAJ applies a many-row activation of (r1, r2) in bank: the ACT of
// r2 arrived within bitwiseEarlyGap of an early PRE of r1 (Activate checks
// the timing). It reports whether the majority function took effect.
func (c *Chip) bitwiseMAJ(bank, r1, r2 int) bool {
	r3 := TripleRow(r1, r2)
	c.stats.BitwiseOps++
	// All three rows must sit in one subarray, like RowClone.
	sa := c.geom.Subarray(r1)
	if c.geom.Subarray(r2) != sa || c.geom.Subarray(r3) != sa || r3 >= c.cfg.RowsPerBank {
		c.stats.BitwiseFails++
		if c.cfg.TrackData {
			c.scramble(bank, r2)
		}
		return false
	}
	if !c.cfg.Ideal && !c.vm.TripleOK(bank, r1, r2) {
		c.stats.BitwiseFails++
		if c.cfg.TrackData {
			c.scramble(bank, r2)
			if r3 != r1 && r3 != r2 {
				c.scramble(bank, r3)
			}
		}
		return false
	}
	if c.cfg.TrackData {
		d1 := c.rowData(bank, r1)
		d2 := c.rowData(bank, r2)
		d3 := c.rowData(bank, r3)
		for i := range d1 {
			a, bb, cc := d1[i], d2[i], d3[i]
			maj := (a & bb) | (a & cc) | (bb & cc)
			d1[i], d2[i], d3[i] = maj, maj, maj
		}
	}
	return true
}
