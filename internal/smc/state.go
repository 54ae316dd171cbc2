package smc

import (
	"easydram/internal/clock"
	"easydram/internal/fault"
	"easydram/internal/snapshot"
)

// Checkpoint hooks. Checkpoints are taken only at engine quiescent points,
// where the request table is empty (every buffered request has been served
// and responded to), so the controller serializes just its persistent
// state: open-row tracking, the arrival sequence allocator, the refresh
// schedule, rank-turnaround history, the quarantine filter, mitigation and
// scheduler state, and statistics. Derived configuration (recovery limits,
// spare base, the profile pattern) is rebuilt by
// NewBaseController.

// StatefulScheduler is implemented by schedulers that carry cross-request
// state a checkpoint must capture (BLISS streaks). The stateless built-ins
// need no hook.
type StatefulScheduler interface {
	Scheduler
	SaveState(e *snapshot.Enc)
	LoadState(d *snapshot.Dec)
}

// SaveState implements StatefulScheduler: the per-channel streak state.
func (s *BLISS) SaveState(e *snapshot.Enc) {
	e.Int(s.streakBank)
	e.Int(s.streak)
}

// LoadState implements StatefulScheduler.
func (s *BLISS) LoadState(d *snapshot.Dec) {
	s.streakBank = d.Int()
	s.streak = d.Int()
}

var _ StatefulScheduler = (*BLISS)(nil)

// SaveState serializes the controller's persistent state. Call only at a
// quiescent point — the request table must be empty (its length is encoded
// so restore can verify).
func (c *BaseController) SaveState(e *snapshot.Enc) {
	e.Int(len(c.table))
	e.Int(len(c.openRows))
	for _, r := range c.openRows {
		e.Int(r)
	}
	e.U64(c.nextSeq)
	e.I64(int64(c.refreshDue))
	e.Int(c.lastCASRank)
	snapshot.EncodeBloom(e, c.quarantine)
	fault.SaveMitigatorState(e, c.mit)
	if ss, ok := c.cfg.Scheduler.(StatefulScheduler); ok {
		e.Bool(true)
		ss.SaveState(e)
	} else {
		e.Bool(false)
	}
	c.saveStats(e)
}

// LoadState restores state written by SaveState into a freshly constructed
// controller of the same configuration.
func (c *BaseController) LoadState(d *snapshot.Dec) {
	if n := d.Int(); n != 0 {
		if d.Err() == nil {
			d.Failf("smc: snapshot holds %d in-flight table entries; checkpoints must be quiescent", n)
		}
		return
	}
	if n := d.Int(); n != len(c.openRows) {
		if d.Err() == nil {
			d.Failf("smc: snapshot has %d banks, controller has %d", n, len(c.openRows))
		}
		return
	}
	for i := range c.openRows {
		c.openRows[i] = d.Int()
	}
	c.nextSeq = d.U64()
	c.refreshDue = clock.PS(d.I64())
	c.lastCASRank = d.Int()
	c.quarantine = snapshot.DecodeBloom(d)
	fault.LoadMitigatorState(d, c.mit)
	hadSched := d.Bool()
	if d.Err() != nil {
		return
	}
	ss, stateful := c.cfg.Scheduler.(StatefulScheduler)
	if hadSched != stateful {
		d.Failf("smc: snapshot scheduler statefulness %v, controller %v", hadSched, stateful)
		return
	}
	if stateful {
		ss.LoadState(d)
	}
	c.loadStats(d)
}

func (c *BaseController) saveStats(e *snapshot.Enc) {
	s := &c.stats
	for _, v := range []int64{
		s.Served, s.Reads, s.Writes, s.RowClones, s.BitwiseOps,
		s.Profiles, s.ProfileRows, s.ProfiledLines, s.Refreshes,
		s.RowHits, s.RowMisses,
		s.RankSwitches, s.Retries, s.RetryGiveUps, s.QuarantinedRows,
		s.RemappedAccesses, s.MitigationRefreshes,
	} {
		e.I64(v)
	}
}

func (c *BaseController) loadStats(d *snapshot.Dec) {
	s := &c.stats
	for _, p := range []*int64{
		&s.Served, &s.Reads, &s.Writes, &s.RowClones, &s.BitwiseOps,
		&s.Profiles, &s.ProfileRows, &s.ProfiledLines, &s.Refreshes,
		&s.RowHits, &s.RowMisses,
		&s.RankSwitches, &s.Retries, &s.RetryGiveUps, &s.QuarantinedRows,
		&s.RemappedAccesses, &s.MitigationRefreshes,
	} {
		*p = d.I64()
	}
}
