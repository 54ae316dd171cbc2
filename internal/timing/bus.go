package timing

import "easydram/internal/clock"

// Shared-bus constraints of a multi-rank channel. Ranks on one channel
// share the command/data bus, so back-to-back CAS commands to different
// ranks must be spaced by the data burst plus a rank-to-rank turnaround
// (tRTRS: the bus needs dead cycles while drive responsibility moves
// between ranks). Like the per-rank Checker, the RankBus *counts*
// violations instead of stalling commands: the software memory controller
// is responsible for spacing CAS pairs, and a nonzero violation count means
// it failed to.

// RankBus tracks the shared data bus of one multi-rank channel.
type RankBus struct {
	// minGap is the minimum spacing between CAS commands to different
	// ranks: the data burst (tBL) plus the rank-to-rank turnaround.
	minGap   clock.PS
	lastRank int
	lastCAS  clock.PS
}

// NewRankBus builds the tracker for a channel with the given timing.
func NewRankBus(p Params) *RankBus {
	return &RankBus{
		minGap:   p.TBL + p.RankSwitch(),
		lastRank: -1,
		lastCAS:  -1 << 60,
	}
}

// NoteCAS records a CAS (RD or WR) to rank at absolute time t and returns 1
// when it violates the rank-to-rank turnaround against the previous CAS
// (different rank, spaced closer than tBL + tRTRS), 0 otherwise.
func (b *RankBus) NoteCAS(rank int, t clock.PS) int {
	violation := 0
	if b.lastRank >= 0 && b.lastRank != rank && t-b.lastCAS < b.minGap {
		violation = 1
	}
	b.lastRank = rank
	b.lastCAS = t
	return violation
}

// RankSwitch reports the rank-to-rank turnaround time (tRTRS): the dead bus
// time between CAS bursts to different ranks. When the parameter set does
// not specify TRTRS, the JEDEC-typical two bus clocks are assumed.
func (p Params) RankSwitch() clock.PS {
	if p.TRTRS > 0 {
		return p.TRTRS
	}
	return 2 * p.Bus.Period()
}
