package cache

import "fmt"

// HierConfig sizes the two-level hierarchy.
type HierConfig struct {
	L1Size  int
	L1Assoc int
	L2Size  int
	L2Assoc int
}

// JetsonNanoHier mirrors the paper's EasyDRAM configuration targeting the
// Jetson Nano class system: 32 KiB L1D, 512 KiB 8-way L2 (the paper's
// EasyDRAM system has a 512 KiB L2 where the real Nano has 2 MiB).
func JetsonNanoHier() HierConfig {
	return HierConfig{L1Size: 32 << 10, L1Assoc: 4, L2Size: 512 << 10, L2Assoc: 8}
}

// Hierarchy is the single-core two-level data-cache hierarchy. It models
// tag words and LRU order only (no data); the DRAM chip model owns data. A
// multi-core system builds a MultiHierarchy instead, never both.
type Hierarchy struct {
	l1 *Cache
	l2 *Cache
	// wbScratch reuses the writeback slice across accesses.
	wbScratch []uint64
}

// NewHierarchy builds the two-level hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	l1, err := New("L1D", cfg.L1Size, cfg.L1Assoc)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	l2, err := New("L2", cfg.L2Size, cfg.L2Assoc)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Hierarchy{l1: l1, l2: l2}, nil
}

// L1 returns the L1 data cache.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the unified L2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Access performs a load or store of the line containing addr. It reports
// the satisfying level — 1 (L1 hit), 2 (L2 hit) or 3 (main-memory fill
// required) — and the dirty victim line addresses that must be written back
// to main memory as a result of this access. On a level-3 outcome the
// caller is responsible for fetching the line from memory; the hierarchy
// installs it immediately (tags-only model, so install order does not
// matter).
//
// The writebacks slice aliases a buffer reused by the next Access or Fill
// call; callers must consume it before touching the hierarchy again. An L1
// hit touches no L2 state and never produces writebacks.
//
// Access is the L1 probe, L1().Access(addr, write), followed on a miss by
// Fill: a caller that probes the L1 itself (the processor model's hit
// path) calls Fill only on a miss, with the same result.
func (h *Hierarchy) Access(addr uint64, write bool) (level int, writebacks []uint64) {
	if h.l1.Access(addr, write) {
		return 1, nil
	}
	return h.Fill(addr, write)
}

// Fill completes an access whose L1 probe, L1().Access(addr, write), has
// just missed: it looks the line up in L2 (filling it from memory there on
// a miss, level 3) and installs it in L1. Its results are Access's.
func (h *Hierarchy) Fill(addr uint64, write bool) (level int, writebacks []uint64) {
	addr &^= uint64(LineBytes - 1)
	h.wbScratch = h.wbScratch[:0]
	level = 2
	// One L2 scan finds the line or fills it from memory.
	if _, hit, v := h.l2.accessFill(addr); !hit {
		level = 3
		if v.Valid {
			// Keep the hierarchy inclusive: an L2 eviction removes the
			// line from L1 too, merging its dirtiness.
			if p, d := h.l1.Flush(v.Addr); p && d || v.Dirty {
				h.wbScratch = append(h.wbScratch, v.Addr)
			}
		}
	}
	// Fill L1.
	if v := h.l1.Install(addr, write); v.Valid && v.Dirty {
		// Dirty L1 victim folds back into L2: a write hit, so it also
		// becomes the L2 set's most recently used line.
		if !h.l2.Access(v.Addr, true) {
			// Victim no longer in L2 (evicted earlier): write back.
			h.wbScratch = append(h.wbScratch, v.Addr)
		}
	}
	return level, h.wbScratch
}

// WouldMiss reports whether an access to addr would miss both levels,
// without perturbing replacement state.
func (h *Hierarchy) WouldMiss(addr uint64) bool {
	addr &^= uint64(LineBytes - 1)
	return !h.l1.Lookup(addr) && !h.l2.Lookup(addr)
}

// Flush removes the line containing addr from both levels, reporting whether
// a writeback to memory is required (the line was dirty in either level).
func (h *Hierarchy) Flush(addr uint64) (writeback bool) {
	addr &^= uint64(LineBytes - 1)
	_, d1 := h.l1.Flush(addr)
	_, d2 := h.l2.Flush(addr)
	return d1 || d2
}
