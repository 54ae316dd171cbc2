package cache

import (
	"cmp"
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lruRef is the reference cache model: per set, a recency list (front =
// most recently used) and a line-address→element map, holding at most
// assoc lines. It has no ways, so it shares no replacement code with Cache.
type lruRef struct {
	assoc int
	sets  []refSet
	stats Stats
}

type refSet struct {
	order *list.List // of *refLine
	lines map[uint64]*list.Element
}

type refLine struct {
	addr  uint64
	dirty bool
}

func newLRURef(sizeBytes, assoc int) *lruRef {
	r := &lruRef{assoc: assoc, sets: make([]refSet, sizeBytes/LineBytes/assoc)}
	for i := range r.sets {
		r.sets[i] = refSet{order: list.New(), lines: make(map[uint64]*list.Element)}
	}
	return r
}

func (r *lruRef) set(addr uint64) (*refSet, uint64) {
	addr &^= LineBytes - 1
	return &r.sets[addr/LineBytes%uint64(len(r.sets))], addr
}

func (r *lruRef) lookup(addr uint64) bool {
	s, addr := r.set(addr)
	_, ok := s.lines[addr]
	return ok
}

func (r *lruRef) access(addr uint64, write bool) bool {
	s, addr := r.set(addr)
	e, ok := s.lines[addr]
	if !ok {
		r.stats.Misses++
		return false
	}
	s.order.MoveToFront(e)
	if write {
		e.Value.(*refLine).dirty = true
	}
	r.stats.Hits++
	return true
}

func (r *lruRef) install(addr uint64, dirty bool) Victim {
	s, addr := r.set(addr)
	var v Victim
	if s.order.Len() == r.assoc {
		old := s.order.Remove(s.order.Back()).(*refLine)
		delete(s.lines, old.addr)
		v = Victim{Addr: old.addr, Dirty: old.dirty, Valid: true}
		r.stats.Evictions++
		if old.dirty {
			r.stats.Writebacks++
		}
	}
	s.lines[addr] = s.order.PushFront(&refLine{addr: addr, dirty: dirty})
	return v
}

func (r *lruRef) flush(addr uint64) (present, dirty bool) {
	s, addr := r.set(addr)
	e, ok := s.lines[addr]
	if !ok {
		return false, false
	}
	delete(s.lines, addr)
	r.stats.Flushes++
	return true, s.order.Remove(e).(*refLine).dirty
}

// residents returns every held line, sorted by address.
func (r *lruRef) residents() []refLine {
	var out []refLine
	for _, s := range r.sets {
		for e := s.order.Front(); e != nil; e = e.Next() {
			out = append(out, *e.Value.(*refLine))
		}
	}
	slices.SortFunc(out, func(a, b refLine) int { return cmp.Compare(a.addr, b.addr) })
	return out
}

// residents returns every valid line of c, sorted by address.
func residents(c *Cache) []refLine {
	var out []refLine
	for i, w := range c.tags {
		if w != 0 {
			out = append(out, refLine{addr: c.lineAddr(i/c.assoc, w>>2), dirty: w&dirtyBit != 0})
		}
	}
	slices.SortFunc(out, func(a, b refLine) int { return cmp.Compare(a.addr, b.addr) })
	return out
}

// dirtyLines returns the sorted addresses of c's dirty lines.
func dirtyLines(c *Cache) []uint64 {
	var out []uint64
	for _, l := range residents(c) {
		if l.dirty {
			out = append(out, l.addr)
		}
	}
	return out
}

// lruCoverage counts the events a diff run must reach to mean anything.
type lruCoverage struct {
	hits, dirtyVictims, invalidFills int
}

// diffLRU applies the op stream encoded in ops (two bytes per op: kind and
// line) to a Cache of sets×assoc lines and to the reference, and fails on
// the first disagreement in a result, the statistics, or the held lines.
// Install is only applied to lines that miss, which is its precondition.
func diffLRU(t *testing.T, sets, assoc int, ops []byte) lruCoverage {
	t.Helper()
	size := sets * assoc * LineBytes
	c := newTestCache(t, size, assoc)
	ref := newLRURef(size, assoc)
	// Three lines per way keep sets full and conflicting.
	lines := 3 * sets * assoc
	var cov lruCoverage
	for step := 0; step+1 < len(ops); step += 2 {
		kind, b := ops[step], ops[step+1]
		addr := uint64(int(b)%lines)*LineBytes + uint64(kind>>3)
		where := func() string {
			return fmt.Sprintf("%d×%d op %d (kind %d, addr %#x)", sets, assoc, step/2, kind%8, addr)
		}
		switch kind % 8 {
		case 0, 1:
			write := kind%8 == 1
			if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
				t.Fatalf("%s: Access = %v, reference %v", where(), got, want)
			} else if got {
				cov.hits++
			}
		case 2, 3:
			if ref.lookup(addr) {
				continue
			}
			if c.Lookup(addr) {
				t.Fatalf("%s: Lookup hits, reference misses", where())
			}
			hadInvalid := setHasInvalid(c, addr)
			got, want := c.Install(addr, kind%8 == 3), ref.install(addr, kind%8 == 3)
			if got != want {
				t.Fatalf("%s: Install victim %+v, reference %+v", where(), got, want)
			}
			cov.note(want, hadInvalid)
		case 4, 5, 6:
			hadInvalid := setHasInvalid(c, addr)
			idx, hit, got := c.accessFill(addr)
			wantHit := ref.access(addr, false)
			var want Victim
			if !wantHit {
				want = ref.install(addr, false)
				cov.note(want, hadInvalid)
			}
			if hit != wantHit || got != want {
				t.Fatalf("%s: accessFill (%v, %+v), reference (%v, %+v)", where(), hit, got, wantHit, want)
			}
			if w := c.tags[idx]; idx/assoc != c.setOf(addr) || w|dirtyBit != c.key(addr) {
				t.Fatalf("%s: accessFill index %d holds %#x, not the line", where(), idx, w)
			}
		case 7:
			if kind&8 != 0 {
				if got, want := c.Lookup(addr), ref.lookup(addr); got != want {
					t.Fatalf("%s: Lookup = %v, reference %v", where(), got, want)
				}
				break
			}
			gp, gd := c.Flush(addr)
			wp, wd := ref.flush(addr)
			if gp != wp || gd != wd {
				t.Fatalf("%s: Flush = (%v, %v), reference (%v, %v)", where(), gp, gd, wp, wd)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%s: stats %+v, reference %+v", where(), c.Stats(), ref.stats)
		}
		if got, want := residents(c), ref.residents(); !slices.Equal(got, want) {
			t.Fatalf("%s: lines %+v, reference %+v", where(), got, want)
		}
	}
	return cov
}

func (cov *lruCoverage) note(v Victim, hadInvalid bool) {
	if v.Dirty {
		cov.dirtyVictims++
	}
	if hadInvalid {
		cov.invalidFills++
	}
}

// setHasInvalid reports whether addr's set has an invalid way.
func setHasInvalid(c *Cache, addr uint64) bool {
	base := c.setOf(addr) * c.assoc
	return slices.Contains(c.tags[base:base+c.assoc], 0)
}

// TestCacheMatchesLRUOracle diffs Cache against the map+list reference over
// seeded random op streams at every associativity shape the model takes:
// one way, powers of two, odd counts, and the 16-way cap.
func TestCacheMatchesLRUOracle(t *testing.T) {
	for _, assoc := range []int{1, 2, 3, 4, 5, 8, 12, 16} {
		for _, sets := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(100*assoc + sets)))
			ops := make([]byte, 2*20000)
			rng.Read(ops)
			cov := diffLRU(t, sets, assoc, ops)
			if cov.hits == 0 || cov.dirtyVictims == 0 || cov.invalidFills == 0 {
				t.Fatalf("%d×%d: weak coverage: %+v", sets, assoc, cov)
			}
		}
	}
}

// FuzzCacheLRU diffs Cache against the map+list reference on fuzzed
// geometry and op streams.
func FuzzCacheLRU(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{4, 0, 4, 1, 4, 2, 4, 3, 1, 0, 4, 4, 7, 1, 4, 0})
	f.Add(uint8(7), uint8(2), []byte{2, 5, 3, 9, 4, 5, 15, 5, 7, 9, 6, 13, 0, 5})
	f.Add(uint8(0), uint8(0), []byte{1, 0, 3, 0, 3, 1, 7, 0, 4, 2})
	assocs := []int{1, 2, 3, 4, 5, 8, 12, 16}
	f.Fuzz(func(t *testing.T, a, s uint8, ops []byte) {
		diffLRU(t, 1<<(s%3), assocs[int(a)%len(assocs)], ops)
	})
}
