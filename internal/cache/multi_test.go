package cache

import (
	"fmt"
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

// multiTwin is one MultiHierarchy and the refMulti built for the same
// geometry and core count, driven op by op through the core views.
type multiTwin struct {
	m     *MultiHierarchy
	views []*CoreView
	ref   *refMulti
}

func newMultiTwin(cfg HierConfig, cores int) (*multiTwin, error) {
	m, err := NewMultiHierarchy(cfg, cores)
	if err != nil {
		return nil, err
	}
	tw := &multiTwin{m: m, ref: &refMulti{l2: newLRURef(cfg.L2Size, cfg.L2Assoc)}}
	for i := 0; i < cores; i++ {
		tw.views = append(tw.views, m.View(i))
		tw.ref.l1s = append(tw.ref.l1s, newLRURef(cfg.L1Size, cfg.L1Assoc))
	}
	return tw, nil
}

// step applies a flush, or a load or store, of addr through core's view
// and through the reference, and reports the first difference in
// WouldMiss, the level, or the writebacks.
func (tw *multiTwin) step(core int, addr uint64, flush, write bool) (writebacks int, err error) {
	ref := tw.ref
	if flush {
		if got, want := tw.views[core].Flush(addr), ref.flush(addr); got != want {
			return 0, fmt.Errorf("Flush(%#x) = %v, want %v", addr, got, want)
		}
		return 0, nil
	}
	if tw.views[core].WouldMiss(addr) != (!ref.l1s[core].lookup(addr) && !ref.l2.lookup(addr)) {
		return 0, fmt.Errorf("WouldMiss(%#x) disagrees", addr)
	}
	gotLevel, gotWB := tw.views[core].Access(addr, write)
	wantLevel, wantWB := ref.access(core, addr, write)
	if gotLevel != wantLevel || !slices.Equal(gotWB, wantWB) {
		return 0, fmt.Errorf("core %d Access(%#x, %v) = (%d, %#x), want (%d, %#x)",
			core, addr, write, gotLevel, gotWB, wantLevel, wantWB)
	}
	return len(wantWB), nil
}

// diffLevels reports the first cache level whose held lines (with their
// dirtiness) or counters differ from the reference, or an L1 line whose
// L2 position lacks that core's holder bit: the bits must be a superset of
// the L1 contents, or an L2 eviction would miss a back-invalidation.
func (tw *multiTwin) diffLevels() error {
	m := tw.m
	for i, l1 := range m.l1s {
		got := residents(l1)
		if !slices.Equal(got, tw.ref.l1s[i].residents()) || l1.Stats() != tw.ref.l1s[i].stats {
			return fmt.Errorf("L1 %d: lines %+v stats %+v, want %+v %+v",
				i, got, l1.Stats(), tw.ref.l1s[i].residents(), tw.ref.l1s[i].stats)
		}
		for _, l := range got {
			pos := m.l2.index(l.addr)
			if pos < 0 {
				return fmt.Errorf("L1 %d holds %#x, which the L2 lacks", i, l.addr)
			}
			if w, sh := m.holder(pos); *w>>(sh+uint(i))&1 == 0 {
				return fmt.Errorf("L1 %d holds %#x without its holder bit at L2 position %d", i, l.addr, pos)
			}
		}
	}
	if got := residents(m.l2); !slices.Equal(got, tw.ref.l2.residents()) || m.L2Stats() != tw.ref.l2.stats {
		return fmt.Errorf("L2: lines %+v stats %+v, want %+v %+v", got, m.L2Stats(), tw.ref.l2.residents(), tw.ref.l2.stats)
	}
	return nil
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
		tw, err := newMultiTwin(cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		ref := tw.ref
		rng := rand.New(rand.NewSource(int64(cores)))
		// Twice the L2's lines keep it evicting.
		lines := 2 * cfg.L2Size / LineBytes
		var sharedFlushes, writebacks int
		for step := 0; step < 50000; step++ {
			core := rng.Intn(cores)
			addr := uint64(rng.Intn(lines))*LineBytes + uint64(rng.Intn(LineBytes))
			op := rng.Intn(10)
			if op < 1 {
				holders := 0
				for _, l1 := range ref.l1s {
					if l1.lookup(addr) {
						holders++
					}
				}
				if holders > 1 {
					sharedFlushes++
				}
			}
			wbs, err := tw.step(core, addr, op < 1, op < 4)
			if err != nil {
				t.Fatalf("%d cores, step %d: %v", cores, step, err)
			}
			writebacks += wbs
		}
		if err := tw.diffLevels(); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		if ref.sharedVictims == 0 || sharedFlushes == 0 || writebacks == 0 {
			t.Fatalf("%d cores: weak coverage: %d L2 victims held by several L1s, %d flushes of lines held by several L1s, %d writebacks",
				cores, ref.sharedVictims, sharedFlushes, writebacks)
		}
		t.Logf("%d cores: %d L2 victims held by several L1s, %d flushes of lines held by several L1s, %d writebacks",
			cores, ref.sharedVictims, sharedFlushes, writebacks)
	}
}

// multiFuzzGeoms are FuzzMultiHierarchy's fabrics: direct-mapped and
// fully associative levels, and L1s from one set to four.
var multiFuzzGeoms = []HierConfig{
	{L1Size: 4 * LineBytes, L1Assoc: 2, L2Size: 16 * LineBytes, L2Assoc: 4},
	{L1Size: 2 * LineBytes, L1Assoc: 1, L2Size: 8 * LineBytes, L2Assoc: 2},
	{L1Size: 4 * LineBytes, L1Assoc: 4, L2Size: 16 * LineBytes, L2Assoc: 16},
	{L1Size: 8 * LineBytes, L1Assoc: 2, L2Size: 8 * LineBytes, L2Assoc: 1},
}

// FuzzMultiHierarchy diffs MultiHierarchy against refMulti on op streams
// decoded from the fuzzer's bytes. The first byte picks 2 or 4 cores and
// a geometry from multiFuzzGeoms; then each two bytes are one operation,
// the first naming the kind (flush, store, load) in its low two bits, the
// issuing core in the next two and a line offset above them, the second
// the line, out of twice as many as the L2 holds. After every operation
// each level's held lines and counters must match, and every line an L1
// holds must carry its holder bit at its L2 position.
func FuzzMultiHierarchy(f *testing.F) {
	// Core 0 loads lines 0 and 4 into ways 0 and 1 of L2 set 0; core 1's
	// load of line 4 then hits the L2's most recently used way, whose
	// position must get core 1's holder bit.
	f.Add([]byte{0, 2, 0, 2, 4, 6, 4})
	f.Add([]byte{0, 1, 0, 5, 16, 2, 0, 6, 32, 0, 16, 1, 8})
	f.Add([]byte{1, 4, 1, 9, 3, 13, 5, 2, 1, 0, 3})
	f.Add([]byte{2, 1, 0, 5, 1, 9, 2, 13, 3, 2, 17, 0, 0, 6, 1})
	f.Add([]byte{7, 5, 4, 1, 12, 9, 20, 13, 28, 0, 4, 6, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cores := 2 << (data[0] & 1)
		cfg := multiFuzzGeoms[int(data[0]>>1)%len(multiFuzzGeoms)]
		tw, err := newMultiTwin(cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		lines := 2 * cfg.L2Size / LineBytes
		for i := 1; i+1 < len(data); i += 2 {
			kind, core := data[i]%4, int(data[i]>>2)%cores
			addr := uint64(int(data[i+1])%lines)*LineBytes + uint64(data[i]>>4)
			if _, err := tw.step(core, addr, kind == 0, kind == 1); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := tw.diffLevels(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}
