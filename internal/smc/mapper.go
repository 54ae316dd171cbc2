// Package smc implements EasyDRAM's software memory controller: the program
// the programmable core executes to arbitrate, schedule, and serve memory
// requests by driving DRAM Bender (§4.1, §5.2).
package smc

import (
	"fmt"
	"math/bits"

	"easydram/internal/cache"
	"easydram/internal/dram"
)

// Mapper translates physical addresses to DRAM coordinates and back
// (EasyAPI get_addr_mapping).
type Mapper interface {
	Map(pa uint64) dram.Addr
	// MapTo is Map writing the coordinates into *a field by field, for
	// the controller's request intake: Map's five-word result is stored
	// to the stack and copied out with 16-byte loads that cannot be
	// forwarded from those stores (see ARCHITECTURE, "Small structs
	// written where they are used").
	MapTo(pa uint64, a *dram.Addr)
	Unmap(a dram.Addr) uint64
	// RowBytes reports the bytes covered by one DRAM row.
	RowBytes() int
	// Banks reports the number of banks addressable.
	Banks() int
}

// RowBankCol maps physical addresses as {row | bank | col | line offset}:
// consecutive row-sized blocks rotate across banks, so any row-aligned
// 8 KiB block occupies exactly one DRAM row — the layout RowClone's
// allocator relies on (§7.1).
type RowBankCol struct {
	colBits  uint
	bankBits uint
	banks    int
	cols     int
}

// NewRowBankCol builds the mapper for the chip geometry.
func NewRowBankCol(banks, colsPerRow int) (*RowBankCol, error) {
	if banks <= 0 || banks&(banks-1) != 0 {
		return nil, fmt.Errorf("smc: bank count %d must be a power of two", banks)
	}
	if colsPerRow <= 0 || colsPerRow&(colsPerRow-1) != 0 {
		return nil, fmt.Errorf("smc: columns per row %d must be a power of two", colsPerRow)
	}
	return &RowBankCol{
		colBits:  uint(bits.TrailingZeros(uint(colsPerRow))),
		bankBits: uint(bits.TrailingZeros(uint(banks))),
		banks:    banks,
		cols:     colsPerRow,
	}, nil
}

const lineShift = 6 // log2(cache.LineBytes)

// Map implements Mapper.
func (m *RowBankCol) Map(pa uint64) (a dram.Addr) {
	m.MapTo(pa, &a)
	return a
}

// MapTo implements Mapper.
func (m *RowBankCol) MapTo(pa uint64, a *dram.Addr) {
	l := pa >> lineShift
	col := int(l & uint64(m.cols-1))
	l >>= m.colBits
	bank := int(l & uint64(m.banks-1))
	l >>= m.bankBits
	a.Chan, a.Rank, a.Bank, a.Row, a.Col = 0, 0, bank, int(l), col
}

// Unmap implements Mapper.
func (m *RowBankCol) Unmap(a dram.Addr) uint64 {
	l := uint64(a.Row)
	l = l<<m.bankBits | uint64(a.Bank)
	l = l<<m.colBits | uint64(a.Col)
	return l << lineShift
}

// RowBytes implements Mapper.
func (m *RowBankCol) RowBytes() int { return m.cols * cache.LineBytes }

// Banks implements Mapper.
func (m *RowBankCol) Banks() int { return m.banks }

var _ Mapper = (*RowBankCol)(nil)
