package core

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSlotRingBasics(t *testing.T) {
	r := newSlotRing()
	if r.Len() != 0 {
		t.Fatalf("new ring not empty")
	}
	for id := uint64(1); id <= 100; id++ {
		r.Put(id, pending{at: int64(id)})
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d after 100 puts", r.Len())
	}
	for id := uint64(1); id <= 100; id++ {
		p, ok := r.Get(id)
		if !ok || p.at != int64(id) {
			t.Fatalf("Get(%d) = %+v, %v", id, p, ok)
		}
	}
	if _, ok := r.Get(101); ok {
		t.Fatalf("Get of unknown id succeeded")
	}
	p, ok := r.Take(50)
	if !ok || p.at != 50 {
		t.Fatalf("Take(50) = %+v, %v", p, ok)
	}
	if r.Contains(50) || r.Len() != 99 {
		t.Fatalf("Take did not remove (len %d)", r.Len())
	}
	if _, ok := r.Take(50); ok {
		t.Fatalf("double Take succeeded")
	}
	// Overwrite keeps the count.
	r.Put(51, pending{posted: true})
	if r.Len() != 99 {
		t.Fatalf("overwrite changed Len to %d", r.Len())
	}
	if p, _ := r.Get(51); !p.posted {
		t.Fatalf("overwrite lost state")
	}
}

// TestSlotRingLongLivedEntry pins the growth path: a request that stays live
// while thousands of successors come and go must survive ID wraparound in
// the ring (the ring doubles until every live entry has a distinct slot).
func TestSlotRingLongLivedEntry(t *testing.T) {
	r := newSlotRing()
	const ancient = uint64(7)
	r.Put(ancient, pending{at: 777})
	for id := uint64(8); id < 8+4096; id++ {
		r.Put(id, pending{at: int64(id)})
		if id%3 != 0 {
			r.Take(id)
		}
	}
	p, ok := r.Get(ancient)
	if !ok || p.at != 777 {
		t.Fatalf("long-lived entry lost across growth: %+v, %v", p, ok)
	}
	// Every still-live successor must be intact too.
	for id := uint64(8); id < 8+4096; id++ {
		if id%3 == 0 {
			if p, ok := r.Get(id); !ok || p.at != int64(id) {
				t.Fatalf("live id %d lost: %+v, %v", id, p, ok)
			}
		} else if r.Contains(id) {
			t.Fatalf("removed id %d still present", id)
		}
	}
}

// TestReleaseQueueOrderAndLookup covers the queue end to end: out-of-order
// pushes with a tie, keyed min-pops, release lookup, and removal from the
// middle of the queue.
func TestReleaseQueueOrderAndLookup(t *testing.T) {
	var q releaseQueue
	if q.Len() != 0 {
		t.Fatalf("new queue not empty")
	}
	// Insert out of order, with a release-point tie (ids 30 and 40).
	for _, it := range []struct {
		id      uint64
		release int64
	}{{10, 500}, {20, 100}, {30, 300}, {40, 300}, {50, 200}} {
		q.Push(it.id, it.release)
	}
	if r, ok := q.Release(30); !ok || r != 300 {
		t.Fatalf("Release(30) = %d, %v", r, ok)
	}
	if _, ok := q.Release(99); ok {
		t.Fatalf("Release of unknown id succeeded")
	}
	if !q.Remove(10) || q.Remove(10) {
		t.Fatalf("Remove must delete exactly once")
	}
	// Pops come out in (release, insertion seq) order: ties by push order.
	wantIDs := []uint64{20, 50, 30, 40}
	for _, want := range wantIDs {
		it := q.PopMin()
		if it.id != want {
			t.Fatalf("PopMin = id %d, want %d", it.id, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// TestReleaseQueueLongLivedEntry pins lookup across a long queue: an entry
// that stays queued while thousands of successors are pushed and popped
// must still be found, ahead of the long-lived entries parked behind it
// (the releaseQueue analogue of TestSlotRingLongLivedEntry).
func TestReleaseQueueLongLivedEntry(t *testing.T) {
	var q releaseQueue
	const ancient = uint64(3)
	const future = int64(1) << 40 // keeps long-lived entries off the queue front
	q.Push(ancient, future)
	for id := uint64(4); id < 4+4096; id++ {
		if id%3 == 0 {
			q.Push(id, future+int64(id)) // long-lived: parked behind ancient
			continue
		}
		q.Push(id, int64(id))
		if it := q.PopMin(); it.id != id {
			t.Fatalf("PopMin = %d, want %d", it.id, id)
		}
	}
	if r, ok := q.Release(ancient); !ok || r != future {
		t.Fatalf("long-lived entry lost across growth: %d, %v", r, ok)
	}
	for id := uint64(4); id < 4+4096; id++ {
		if _, ok := q.Release(id); ok != (id%3 == 0) {
			t.Fatalf("id %d presence = %v, want %v", id, ok, id%3 == 0)
		}
	}
}

// TestSlotRingWraparound pins dense-ID indexing across an ID-space
// wraparound: IDs that collide under the slot mask force growth until both
// live entries fit.
func TestSlotRingWraparound(t *testing.T) {
	x := newSlotRing()
	// Two IDs idTableInitial apart collide in the initial table.
	a, b := uint64(5), uint64(5+idTableInitial)
	x.Put(a, pending{at: 1})
	x.Put(b, pending{at: 2})
	if va, ok := x.Get(a); !ok || va.at != 1 {
		t.Fatalf("Get(a) = %+v, %v after collision growth", va, ok)
	}
	if vb, ok := x.Get(b); !ok || vb.at != 2 {
		t.Fatalf("Get(b) = %+v, %v after collision growth", vb, ok)
	}
	// ID-space wraparound: the sequential allocator rolling over from the
	// top of the uint64 range to small IDs must keep both ends live (the
	// top ID's slot bits are all ones, the restart's nearly all zeros).
	top, restart := ^uint64(0), uint64(1)
	x.Put(top, pending{at: 3})
	x.Put(restart, pending{at: 4})
	for _, c := range []struct {
		id   uint64
		want int64
	}{{a, 1}, {b, 2}, {top, 3}, {restart, 4}} {
		if v, ok := x.Get(c.id); !ok || v.at != c.want {
			t.Fatalf("Get(%d) = %+v, %v, want at %d", c.id, v, ok, c.want)
		}
	}
	if !x.Delete(b) || x.Delete(b) {
		t.Fatalf("Delete must remove exactly once")
	}
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3", x.Len())
	}
}

// TestReleaseQueueSteadyStateAllocs pins the queue at zero allocations per
// operation in steady state, mirroring the slot-ring guard: once the
// slice is sized, push/lookup/pop cycles must not allocate.
func TestReleaseQueueSteadyStateAllocs(t *testing.T) {
	var q releaseQueue
	next := uint64(1)
	for i := 0; i < 32; i++ { // warm: establish capacity
		q.Push(next, int64(next))
		next++
	}
	for q.Len() > 0 {
		q.PopMin()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			q.Push(next, int64(next))
			if _, ok := q.Release(next); !ok {
				t.Fatal("steady-state Release failed")
			}
			next++
			if q.Len() > 16 {
				q.PopMin()
			}
		}
		for q.Len() > 0 {
			q.PopMin()
		}
	})
	if allocs != 0 {
		t.Fatalf("release queue allocates in steady state: %.1f allocs/run", allocs)
	}
}

// TestSlotRingSteadyStateAllocs pins the slot ring at zero allocations per
// operation in steady state: once sized, put/get/take cycles over a sliding
// live window must not allocate at all.
func TestSlotRingSteadyStateAllocs(t *testing.T) {
	r := newSlotRing()
	next := uint64(1)
	// Warm: establish the steady-state live window.
	for i := 0; i < 32; i++ {
		r.Put(next, pending{at: int64(next)})
		next++
	}
	oldest := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			r.Put(next, pending{at: int64(next)})
			next++
			if _, ok := r.Take(oldest); !ok {
				t.Fatal("steady-state Take failed")
			}
			oldest++
		}
	})
	if allocs != 0 {
		t.Fatalf("slot ring allocates in steady state: %.1f allocs/run", allocs)
	}
}

// naiveItem is one entry of the release-queue oracle: an unordered list
// that finds the minimum (release, insertion order) by scanning.
type naiveItem struct {
	releaseItem
	ins int
}

// releaseCoverage counts the oracle cases a run exercised.
type releaseCoverage struct {
	ties, pops, removed, absent int
}

// diffReleaseQueue drives a releaseQueue and the naive oracle with the same
// operations decoded from ops, two bytes each, and fails on the first
// divergence in any result or in the queue's order. Releases come from a
// 16-value window that drifts upward, so pushes tie and arrive out of
// order; lookups and removals name present and absent ids.
func diffReleaseQueue(t *testing.T, ops []byte) releaseCoverage {
	t.Helper()
	var (
		q     releaseQueue
		naive []naiveItem
		cov   releaseCoverage
		next  = uint64(1)
		base  int64
		ins   int
	)
	minAt := func() int {
		m := 0
		for i, it := range naive {
			if it.release < naive[m].release || it.release == naive[m].release && it.ins < naive[m].ins {
				m = i
			}
		}
		return m
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%6, ops[k+1]
		switch op {
		case 0, 1: // Push
			release := base + int64(arg%16)
			for _, it := range naive {
				if it.release == release {
					cov.ties++
					break
				}
			}
			q.Push(next, release)
			naive = append(naive, naiveItem{releaseItem{id: next, release: release}, ins})
			next++
			ins++
			base += int64(arg >> 6)
		case 2: // PopMin
			if len(naive) == 0 {
				continue
			}
			m := minAt()
			if got := q.PopMin(); got != naive[m].releaseItem {
				t.Fatalf("op %d: PopMin = %+v, want %+v", k/2, got, naive[m].releaseItem)
			}
			naive = slices.Delete(naive, m, m+1)
			cov.pops++
		case 3: // Min
			if len(naive) == 0 {
				continue
			}
			if got, want := q.Min(), naive[minAt()].releaseItem; got != want {
				t.Fatalf("op %d: Min = %+v, want %+v", k/2, got, want)
			}
		case 4, 5: // Release, then Remove on odd op bytes
			id := next - 1 - uint64(arg%32) // spans live, popped and never-pushed ids
			at := slices.IndexFunc(naive, func(it naiveItem) bool { return it.id == id })
			rel, ok := q.Release(id)
			if ok != (at >= 0) || ok && rel != naive[at].release {
				t.Fatalf("op %d: Release(%d) = %d, %v; oracle index %d", k/2, id, rel, ok, at)
			}
			if op == 5 {
				if q.Remove(id) != (at >= 0) {
					t.Fatalf("op %d: Remove(%d) disagrees with the oracle (index %d)", k/2, id, at)
				}
				if at >= 0 {
					naive = slices.Delete(naive, at, at+1)
					cov.removed++
				} else {
					cov.absent++
				}
			}
		}
		if q.Len() != len(naive) {
			t.Fatalf("op %d: Len = %d, oracle holds %d", k/2, q.Len(), len(naive))
		}
		want := slices.Clone(naive)
		slices.SortFunc(want, func(a, b naiveItem) int {
			if a.release != b.release {
				return int(a.release - b.release)
			}
			return a.ins - b.ins
		})
		for i := range want {
			if q.items[i] != want[i].releaseItem {
				t.Fatalf("op %d: queue order %+v, oracle order %+v", k/2, q.items, want)
			}
		}
	}
	return cov
}

// TestReleaseQueueMatchesOracle diffs the sorted queue against the naive
// unordered oracle over seeded random operation streams.
func TestReleaseQueueMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 2*4000)
		rand.New(rand.NewSource(seed)).Read(ops)
		cov := diffReleaseQueue(t, ops)
		if cov.ties == 0 || cov.pops == 0 || cov.removed == 0 || cov.absent == 0 {
			t.Fatalf("seed %d: weak coverage: %+v", seed, cov)
		}
	}
}

// FuzzReleaseQueue diffs the sorted queue against the naive oracle on
// fuzzed operation streams.
func FuzzReleaseQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 1, 3, 0, 2, 0, 5, 1, 2, 0})
	f.Add([]byte{0, 200, 0, 7, 4, 0, 5, 1, 5, 40, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { diffReleaseQueue(t, ops) })
}
