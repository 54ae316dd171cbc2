package smc

import (
	"fmt"
	"math/bits"

	"easydram/internal/cache"
	"easydram/internal/dram"
)

// TopologyMapper is the topology-aware physical-address decoder: it extends
// the RowBankCol scheme with channel and rank coordinates. Within a channel
// the layout stays {row | rank | bank | col} (ranks appear as consecutive
// groups of banks, so Addr.Bank is the channel-global bank index and
// Addr.Rank = Bank / banksPerRank); the channel bits sit at cache-line
// granularity (InterleaveLine: consecutive lines rotate across channels) or
// at row granularity (InterleaveRow: each row's lines stay on one channel).
//
// With one channel and one rank the decode is bit-identical to RowBankCol —
// the equivalence the golden single-channel tests pin.
type TopologyMapper struct {
	topo      dram.Topology
	chanBits  uint
	colBits   uint
	bankBits  uint // channel-global: rank bits + per-rank bank bits
	rankShift uint
	chans     int
	cols      int
	gbanks    int
}

// NewTopologyMapper builds the mapper for `chipBanks` banks per rank and
// colsPerRow columns under the given (normalised) topology.
func NewTopologyMapper(topo dram.Topology, chipBanks, colsPerRow int) (*TopologyMapper, error) {
	topo = topo.Normalize()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if chipBanks <= 0 || chipBanks&(chipBanks-1) != 0 {
		return nil, fmt.Errorf("smc: bank count %d must be a power of two", chipBanks)
	}
	if colsPerRow <= 0 || colsPerRow&(colsPerRow-1) != 0 {
		return nil, fmt.Errorf("smc: columns per row %d must be a power of two", colsPerRow)
	}
	gbanks := topo.Ranks * chipBanks
	return &TopologyMapper{
		topo:      topo,
		chanBits:  uint(bits.TrailingZeros(uint(topo.Channels))),
		colBits:   uint(bits.TrailingZeros(uint(colsPerRow))),
		bankBits:  uint(bits.TrailingZeros(uint(gbanks))),
		rankShift: uint(bits.TrailingZeros(uint(chipBanks))),
		chans:     topo.Channels,
		cols:      colsPerRow,
		gbanks:    gbanks,
	}, nil
}

// Topology returns the normalised topology the mapper decodes for.
func (m *TopologyMapper) Topology() dram.Topology { return m.topo }

// Channels reports the channel count.
func (m *TopologyMapper) Channels() int { return m.chans }

// Map implements Mapper: it decodes pa to full (channel, rank, bank, row,
// col) coordinates. Bank is channel-global (rank folded in).
func (m *TopologyMapper) Map(pa uint64) (a dram.Addr) {
	m.MapTo(pa, &a)
	return a
}

// MapTo implements Mapper.
func (m *TopologyMapper) MapTo(pa uint64, a *dram.Addr) {
	l := pa >> lineShift
	var ch int
	if m.topo.Interleave == dram.InterleaveLine {
		ch = int(l & uint64(m.chans-1))
		l >>= m.chanBits
	}
	col := int(l & uint64(m.cols-1))
	l >>= m.colBits
	if m.topo.Interleave == dram.InterleaveRow {
		ch = int(l & uint64(m.chans-1))
		l >>= m.chanBits
	}
	gbank := int(l & uint64(m.gbanks-1))
	l >>= m.bankBits
	a.Chan, a.Rank, a.Bank, a.Row, a.Col = ch, gbank>>m.rankShift, gbank, int(l), col
}

// Unmap implements Mapper (the exact inverse of Map; Addr.Rank is ignored —
// it is derivable from Bank).
func (m *TopologyMapper) Unmap(a dram.Addr) uint64 {
	l := uint64(a.Row)
	l = l<<m.bankBits | uint64(a.Bank)
	if m.topo.Interleave == dram.InterleaveRow {
		l = l<<m.chanBits | uint64(a.Chan)
	}
	l = l<<m.colBits | uint64(a.Col)
	if m.topo.Interleave == dram.InterleaveLine {
		l = l<<m.chanBits | uint64(a.Chan)
	}
	return l << lineShift
}

// RowBytes implements Mapper.
func (m *TopologyMapper) RowBytes() int { return m.cols * cache.LineBytes }

// Banks implements Mapper: the channel-global bank count (ranks x banks per
// rank) — the size of one channel controller's open-row table.
func (m *TopologyMapper) Banks() int { return m.gbanks }

var _ Mapper = (*TopologyMapper)(nil)
