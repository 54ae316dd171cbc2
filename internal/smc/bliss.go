package smc

// BLISS implements the Blacklisting memory scheduler (Subramanian et al.,
// cited by the paper's §2.3): applications that hit the row buffer too many
// times in a row get blacklisted, capping the row-hit streak so other
// requesters are not starved. In this single-requester emulation the
// blacklist degenerates to a per-bank streak cap, which is still the
// interesting scheduling behaviour: bounded row-hit batching.
//
// BLISS exists to demonstrate how little code a new scheduling policy
// needs on the software-defined memory controller.
type BLISS struct {
	// MaxStreak is the longest run of consecutive row hits served from one
	// bank before the scheduler reverts to oldest-first (default 4, the
	// BLISS paper's blacklisting threshold).
	MaxStreak int

	streakBank int
	streak     int
}

// NewBLISS returns a BLISS scheduler with the published default threshold.
func NewBLISS() *BLISS { return &BLISS{MaxStreak: 4, streakBank: -1} }

// Name implements Scheduler.
func (s *BLISS) Name() string { return "bliss" }

// Pick implements Scheduler.
func (s *BLISS) Pick(table []Entry, openRows []int) int {
	max := s.MaxStreak
	if max <= 0 {
		max = 4
	}
	pick, oldest := -1, 0
	for i := range table {
		e := &table[i]
		if e.Seq < table[oldest].Seq {
			oldest = i
		}
		if !e.IsAccess() {
			continue
		}
		if openRows[e.Addr.Bank] != e.Addr.Row {
			continue
		}
		if e.Addr.Bank == s.streakBank && s.streak >= max {
			continue // blacklisted: streak cap reached
		}
		if pick < 0 || e.Seq < table[pick].Seq {
			pick = i // oldest eligible row hit
		}
	}
	if pick < 0 {
		// Oldest first; reset the streak for the newly opened bank.
		s.streakBank, s.streak = table[oldest].Addr.Bank, 0
		return oldest
	}
	if table[pick].Addr.Bank == s.streakBank {
		s.streak++
	} else {
		s.streakBank, s.streak = table[pick].Addr.Bank, 1
	}
	return pick
}

// CloneForChannel implements ChannelScheduler: each channel gets its own
// streak state under the same threshold.
func (s *BLISS) CloneForChannel() Scheduler { return &BLISS{MaxStreak: s.MaxStreak, streakBank: -1} }

var (
	_ Scheduler        = (*BLISS)(nil)
	_ ChannelScheduler = (*BLISS)(nil)
)
