package timescale

import (
	"easydram/internal/clock"
	"easydram/internal/snapshot"
)

// SaveState serializes the dynamic counter file (the clock configuration
// is rebuilt from the run configuration, not stored).
func (c *Counters) SaveState(e *snapshot.Enc) {
	e.I64(int64(c.proc))
	e.I64(int64(c.global))
	e.I64(int64(c.mcPS))
	e.Bool(c.critical)
}

// LoadState restores counters written by SaveState into a freshly
// constructed Counters (clocks already configured by New).
func (c *Counters) LoadState(d *snapshot.Dec) {
	c.proc = clock.Cycles(d.I64())
	c.global = clock.Cycles(d.I64())
	c.mcPS = clock.PS(d.I64())
	c.critical = d.Bool()
}
