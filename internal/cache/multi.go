package cache

import (
	"fmt"
	"math/bits"
)

// MultiHierarchy is the N-core cache fabric of the multi-core emulated
// host: one private L1D per core in front of one shared, inclusive L2.
// Each core accesses the fabric through its CoreView, which presents the
// same Access/WouldMiss/Flush surface as a single-core Hierarchy.
//
// Coherence is deliberately simplified (and documented in ARCHITECTURE.md):
// there is no cross-L1 MESI protocol. The multiprogram mixes this fabric
// exists for give every core a disjoint address window, so no line is ever
// live in two L1s at once. The inclusive invariant is still enforced
// globally — an L2 eviction back-invalidates the line in every L1 that may
// hold it, merging dirtiness into the writeback — so a workload that does
// share lines stays functionally safe (tags-only model) even though it
// would not see coherence misses.
//
// "May hold" is a superset tracked per L2 line position (the way's index
// set*assoc+way into the L2's tag words): holders has one bit per (core,
// position), set when the core fills its L1 through the line and cleared
// for every core when the position is refilled. Flushing an L1 that lacks a
// line changes nothing, not even a counter or a recency word, so flushing
// only the L1s whose bits are set is exactly the every-L1 flush.
type MultiHierarchy struct {
	l1s []*Cache
	l2  *Cache
	// holders packs the per-core bits of each L2 line position into one
	// field of 1<<fieldLog bits (the core count rounded up to a power of
	// two), so a line's holders sit in one word: position i's field
	// starts at bit i<<fieldLog of the array, and core c is its bit c.
	holders  []uint64
	fieldLog uint
	coreMask uint64
	// wbScratch reuses the writeback slice across accesses (one shared
	// scratch: the engine steps cores one at a time).
	wbScratch []uint64
}

// NewMultiHierarchy builds cores private L1s behind one shared L2 sized by
// cfg (cfg.L1Size/L1Assoc size each private L1; cfg.L2Size/L2Assoc the
// shared L2).
func NewMultiHierarchy(cfg HierConfig, cores int) (*MultiHierarchy, error) {
	if cores < 1 {
		return nil, fmt.Errorf("cache: multi-hierarchy needs at least 1 core, got %d", cores)
	}
	m := &MultiHierarchy{}
	for i := 0; i < cores; i++ {
		l1, err := New(fmt.Sprintf("L1D.%d", i), cfg.L1Size, cfg.L1Assoc)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		m.l1s = append(m.l1s, l1)
	}
	l2, err := New("L2", cfg.L2Size, cfg.L2Assoc)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	m.l2 = l2
	m.fieldLog = uint(bits.Len(uint(cores - 1)))
	m.coreMask = ^uint64(0) >> (64 - cores)
	m.holders = make([]uint64, (len(l2.tags)<<m.fieldLog+63)/64)
	return m, nil
}

// View returns core i's private window onto the fabric.
func (m *MultiHierarchy) View(i int) *CoreView { return &CoreView{m: m, l1: m.l1s[i], core: i} }

// L1Stats returns core i's private-L1 counters.
func (m *MultiHierarchy) L1Stats(i int) Stats { return m.l1s[i].Stats() }

// L2Stats returns the shared L2's counters.
func (m *MultiHierarchy) L2Stats() Stats { return m.l2.Stats() }

// holder returns the word holding L2 position i's field and the field's
// shift within it.
func (m *MultiHierarchy) holder(i int) (*uint64, uint) {
	at := uint(i) << m.fieldLog
	return &m.holders[at>>6], at & 63
}

// dropHolders clears every core's bit for L2 position i and, with flush,
// flushes addr from the L1s whose bit was set, reporting whether any
// flushed copy was dirty. By the holders superset, addr is then in no L1.
func (m *MultiHierarchy) dropHolders(i int, addr uint64, flush bool) (dirty bool) {
	w, sh := m.holder(i)
	f := *w >> sh & m.coreMask
	*w &^= f << sh
	for ; flush && f != 0; f &= f - 1 {
		if _, d := m.l1s[bits.TrailingZeros64(f)].Flush(addr); d {
			dirty = true
		}
	}
	return dirty
}

// CoreView is one core's access port: the private L1 plus the shared L2,
// with the same semantics as Hierarchy (see MultiHierarchy for the
// coherence simplifications).
type CoreView struct {
	m    *MultiHierarchy
	l1   *Cache
	core int
}

// L1 returns the core's private L1.
func (v *CoreView) L1() *Cache { return v.l1 }

// Access performs a load or store of the line containing addr through the
// core's private L1 and the shared L2, mirroring Hierarchy.Access: it
// reports the satisfying level (1, 2, or 3 = main-memory fill) and the
// dirty victim lines that must be written back to memory. The writebacks
// slice aliases a buffer reused by the next Access or Fill on ANY view;
// the engine consumes it before stepping another core. As for Hierarchy,
// Access is the L1 probe followed on a miss by Fill.
func (v *CoreView) Access(addr uint64, write bool) (level int, writebacks []uint64) {
	if v.l1.Access(addr, write) {
		return 1, nil
	}
	return v.Fill(addr, write)
}

// Fill completes an access whose probe of the core's L1,
// L1().Access(addr, write), has just missed, mirroring Hierarchy.Fill.
func (v *CoreView) Fill(addr uint64, write bool) (level int, writebacks []uint64) {
	m := v.m
	addr &^= uint64(LineBytes - 1)
	m.wbScratch = m.wbScratch[:0]
	level = 2
	i, hit, vic := m.l2.accessFill(addr)
	if !hit {
		level = 3
		// Fill the shared L2 from memory. Inclusion is global: the L2
		// victim is back-invalidated in every L1 that may hold it, merging
		// each private copy's dirtiness into one writeback decision.
		if m.dropHolders(i, vic.Addr, vic.Valid) || vic.Dirty {
			m.wbScratch = append(m.wbScratch, vic.Addr)
		}
	}
	w, sh := m.holder(i)
	*w |= 1 << (sh + uint(v.core))
	// Fill the private L1.
	if vic := v.l1.Install(addr, write); vic.Valid && vic.Dirty {
		// Dirty L1 victim folds back into the shared L2.
		if !m.l2.Access(vic.Addr, true) {
			// Victim no longer in L2 (evicted earlier): write back.
			m.wbScratch = append(m.wbScratch, vic.Addr)
		}
	}
	return level, m.wbScratch
}

// WouldMiss reports whether an access to addr would miss both the core's
// L1 and the shared L2, without perturbing replacement state.
func (v *CoreView) WouldMiss(addr uint64) bool {
	addr &^= uint64(LineBytes - 1)
	return !v.l1.Lookup(addr) && !v.m.l2.Lookup(addr)
}

// Flush removes the line containing addr from every L1 and the shared L2
// (EasyDRAM's flush register is a fabric-wide operation), reporting whether
// a writeback to memory is required. By inclusion, a line the L2 lacks is
// in no L1.
func (v *CoreView) Flush(addr uint64) (writeback bool) {
	addr &^= uint64(LineBytes - 1)
	m := v.m
	i := m.l2.index(addr)
	if i < 0 {
		return false
	}
	dirty := m.dropHolders(i, addr, true)
	return m.l2.flushAt(i) || dirty
}
