package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refMulti is the reference multi-core fabric, built on the map+list LRU
// reference: private L1s in front of an inclusive shared L2, with an L2
// eviction flushing the victim from every L1 and the L2 fill built from
// access and install.
type refMulti struct {
	l1s []*lruRef
	l2  *lruRef
	// sharedVictims counts L2 victims that several L1s held.
	sharedVictims int
}

func (r *refMulti) access(core int, addr uint64, write bool) (level int, writebacks []uint64) {
	addr &^= uint64(LineBytes - 1)
	l1 := r.l1s[core]
	if l1.access(addr, write) {
		return 1, nil
	}
	level = 2
	if !r.l2.access(addr, false) {
		level = 3
		if vic := r.l2.install(addr, false); vic.Valid {
			dirty, held := vic.Dirty, 0
			for _, other := range r.l1s {
				p, d := other.flush(vic.Addr)
				if p {
					held++
				}
				if d {
					dirty = true
				}
			}
			if held > 1 {
				r.sharedVictims++
			}
			if dirty {
				writebacks = append(writebacks, vic.Addr)
			}
		}
	}
	if vic := l1.install(addr, write); vic.Valid && vic.Dirty {
		if !r.l2.access(vic.Addr, true) {
			writebacks = append(writebacks, vic.Addr)
		}
	}
	return level, writebacks
}

func (r *refMulti) flush(addr uint64) (writeback bool) {
	addr &^= uint64(LineBytes - 1)
	for _, l1 := range r.l1s {
		if _, d := l1.flush(addr); d {
			writeback = true
		}
	}
	_, d2 := r.l2.flush(addr)
	return writeback || d2
}

// TestMultiHierarchyMatchesEveryL1Flush checks MultiHierarchy's
// back-invalidation of only the L1s that may hold a line against refMulti,
// which flushes every L1 and shares no code with Cache. All cores draw from one small address
// space, so lines live in several L1s at once, and the L2 is small, so it
// evicts constantly. Level and writebacks must match after every
// operation, and every cache line, counter and dirty line at the end.
func TestMultiHierarchyMatchesEveryL1Flush(t *testing.T) {
	cfg := HierConfig{L1Size: 4 * LineBytes, L1Assoc: 2, L2Size: 16 * LineBytes, L2Assoc: 4}
	for _, cores := range []int{2, 3, 4, 5, 64} {
		m, err := NewMultiHierarchy(cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refMulti{l2: newLRURef(cfg.L2Size, cfg.L2Assoc)}
		for i := 0; i < cores; i++ {
			ref.l1s = append(ref.l1s, newLRURef(cfg.L1Size, cfg.L1Assoc))
		}
		views := make([]*CoreView, cores)
		for i := range views {
			views[i] = m.View(i)
		}
		rng := rand.New(rand.NewSource(int64(cores)))
		// Twice the L2's lines keep it evicting.
		lines := 2 * cfg.L2Size / LineBytes
		var sharedFlushes, writebacks int
		for step := 0; step < 50000; step++ {
			core := rng.Intn(cores)
			addr := uint64(rng.Intn(lines))*LineBytes + uint64(rng.Intn(LineBytes))
			holders := 0
			for _, l1 := range ref.l1s {
				if l1.lookup(addr) {
					holders++
				}
			}
			switch op := rng.Intn(10); {
			case op < 1:
				got, want := views[core].Flush(addr), ref.flush(addr)
				if got != want {
					t.Fatalf("%d cores, step %d: Flush(%#x) = %v, want %v", cores, step, addr, got, want)
				}
				if holders > 1 {
					sharedFlushes++
				}
			default:
				if views[core].WouldMiss(addr) != (!ref.l1s[core].lookup(addr) && !ref.l2.lookup(addr)) {
					t.Fatalf("%d cores, step %d: WouldMiss(%#x) disagrees", cores, step, addr)
				}
				write := op < 4
				gotLevel, gotWB := views[core].Access(addr, write)
				wantLevel, wantWB := ref.access(core, addr, write)
				if gotLevel != wantLevel || !slices.Equal(gotWB, wantWB) {
					t.Fatalf("%d cores, step %d: core %d Access(%#x, %v) = (%d, %#x), want (%d, %#x)",
						cores, step, core, addr, write, gotLevel, gotWB, wantLevel, wantWB)
				}
				writebacks += len(wantWB)
			}
		}
		for i, l1 := range m.l1s {
			if !slices.Equal(residents(l1), ref.l1s[i].residents()) || l1.Stats() != ref.l1s[i].stats {
				t.Fatalf("%d cores: L1 %d diverged: stats %+v, want %+v", cores, i, l1.Stats(), ref.l1s[i].stats)
			}
		}
		if !slices.Equal(residents(m.l2), ref.l2.residents()) || m.L2Stats() != ref.l2.stats {
			t.Fatalf("%d cores: L2 diverged: stats %+v, want %+v", cores, m.L2Stats(), ref.l2.stats)
		}
		if ref.sharedVictims == 0 || sharedFlushes == 0 || writebacks == 0 {
			t.Fatalf("%d cores: weak coverage: %d L2 victims held by several L1s, %d flushes of lines held by several L1s, %d writebacks",
				cores, ref.sharedVictims, sharedFlushes, writebacks)
		}
		t.Logf("%d cores: %d L2 victims held by several L1s, %d flushes of lines held by several L1s, %d writebacks",
			cores, ref.sharedVictims, sharedFlushes, writebacks)
	}
}
