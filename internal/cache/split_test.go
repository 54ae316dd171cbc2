package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// splitView is the surface the processor model drives: the whole access,
// or its L1 probe and the Fill that completes a miss.
type splitView interface {
	Access(addr uint64, write bool) (level int, writebacks []uint64)
	L1() *Cache
	Fill(addr uint64, write bool) (level int, writebacks []uint64)
	Flush(addr uint64) (writeback bool)
}

// splitTwins is one cache fabric built twice. whole drives every access
// through Access; split probes L1() and calls Fill on a miss.
type splitTwins struct {
	whole, split []splitView
	// caches lists every cache level of each twin in the same order;
	// multis holds each twin's multi-core fabric, nil for a Hierarchy.
	caches [2][]*Cache
	multis [2]*MultiHierarchy
}

// splitGeom keeps sets small and full: 8 L1 lines (4 sets of 2 ways) per
// core in front of 32 L2 lines (8 sets of 4 ways).
var splitGeom = HierConfig{L1Size: 8 * LineBytes, L1Assoc: 2, L2Size: 32 * LineBytes, L2Assoc: 4}

// newSplitTwins builds the twins: a Hierarchy for cores 0, else a
// MultiHierarchy with that many core views.
func newSplitTwins(cores int) (*splitTwins, error) {
	tw := &splitTwins{}
	for k := 0; k < 2; k++ {
		var views []splitView
		if cores == 0 {
			h, err := NewHierarchy(splitGeom)
			if err != nil {
				return nil, err
			}
			views = []splitView{h}
			tw.caches[k] = []*Cache{h.L1(), h.L2()}
		} else {
			m, err := NewMultiHierarchy(splitGeom, cores)
			if err != nil {
				return nil, err
			}
			for i := 0; i < cores; i++ {
				views = append(views, m.View(i))
			}
			tw.caches[k] = append(slices.Clone(m.l1s), m.l2)
			tw.multis[k] = m
		}
		if k == 0 {
			tw.whole = views
		} else {
			tw.split = views
		}
	}
	return tw, nil
}

// step applies one operation to both twins through core's view: a flush,
// or a load or store that the split twin takes as probe plus Fill. It
// reports the first difference in results, statistics, tag words, recency
// words or multi-core holder bits.
func (tw *splitTwins) step(core int, addr uint64, flush, write bool) error {
	core %= len(tw.whole)
	w, s := tw.whole[core], tw.split[core]
	if flush {
		if a, b := w.Flush(addr), s.Flush(addr); a != b {
			return fmt.Errorf("Flush(%#x) = %v, split twin %v", addr, a, b)
		}
	} else {
		level, wbs := w.Access(addr, write)
		wbs = slices.Clone(wbs)
		splitLevel, splitWbs := 1, []uint64(nil)
		if !s.L1().Access(addr, write) {
			splitLevel, splitWbs = s.Fill(addr, write)
		}
		if level != splitLevel || !slices.Equal(wbs, splitWbs) {
			return fmt.Errorf("core %d access(%#x, write=%v): Access (%d, %#x), probe+Fill (%d, %#x)",
				core, addr, write, level, wbs, splitLevel, splitWbs)
		}
	}
	for i, c := range tw.caches[0] {
		d := tw.caches[1][i]
		if c.stats != d.stats || !slices.Equal(c.tags, d.tags) || !slices.Equal(c.recency, d.recency) {
			return fmt.Errorf("%s: stats %+v tags %#x recency %#x, split twin %+v %#x %#x",
				c.name, c.stats, c.tags, c.recency, d.stats, d.tags, d.recency)
		}
	}
	if m := tw.multis[0]; m != nil && !slices.Equal(m.holders, tw.multis[1].holders) {
		return fmt.Errorf("holders %#x, split twin %#x", m.holders, tw.multis[1].holders)
	}
	return nil
}

// TestSplitMatchesAccess checks that the processor model's split access
// path — L1().Access and, on a miss, Fill — is Access exactly, on a
// Hierarchy and on 2- and 4-core views of a shared L2, over seeded streams
// of loads, stores and flushes to three times as many lines as the L2
// holds.
func TestSplitMatchesAccess(t *testing.T) {
	for _, cores := range []int{0, 2, 4} {
		tw, err := newSplitTwins(cores)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(26 + cores)))
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(96))*LineBytes + uint64(rng.Intn(LineBytes))
			op := rng.Intn(10)
			if err := tw.step(rng.Intn(8), addr, op == 0, op < 4); err != nil {
				t.Fatalf("cores %d, op %d: %v", cores, i, err)
			}
		}
		var dirty int64
		for _, c := range tw.caches[0] {
			dirty += c.stats.Writebacks
		}
		l2 := tw.caches[0][len(tw.caches[0])-1].stats
		if l2.Hits == 0 || l2.Misses == 0 || dirty == 0 {
			t.Fatalf("cores %d: weak coverage: L2 %+v, %d dirty evictions", cores, l2, dirty)
		}
	}
}

// FuzzSplitMatchesAccess runs TestSplitMatchesAccess's check on op streams
// decoded from the fuzzer's bytes: the first byte picks the fabric (a
// Hierarchy, 2 or 4 cores), then each two bytes are one operation, the
// low bits of the first naming the kind (flush, store, load) and the
// issuing core, the second the line.
func FuzzSplitMatchesAccess(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 64, 3, 128, 0, 0, 1, 96})
	f.Add([]byte{1, 5, 10, 2, 74, 0, 10, 6, 200})
	f.Add([]byte{2, 9, 1, 13, 33, 2, 65, 17, 97, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tw, err := newSplitTwins([]int{0, 2, 4}[int(data[0])%3])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i+1 < len(data); i += 2 {
			kind, core := data[i]%4, int(data[i]>>2)
			addr := uint64(data[i+1])*LineBytes + uint64(data[i]>>4)
			if err := tw.step(core, addr, kind == 0, kind == 1); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}
