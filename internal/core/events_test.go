package core

import (
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

// TestReleaseQueueOrderAndLookup covers the dense-ID position index end to
// end: pushes, keyed min-pops, O(1) release lookup, and removal from the
// middle of the heap.
func TestReleaseQueueOrderAndLookup(t *testing.T) {
	q := newReleaseQueue()
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

// TestReleaseQueueLongLivedEntry pins the position index's growth path: an
// entry that stays queued while thousands of successors are pushed and
// popped must survive the dense table doubling (the releaseQueue analogue
// of TestSlotRingLongLivedEntry).
func TestReleaseQueueLongLivedEntry(t *testing.T) {
	q := newReleaseQueue()
	const ancient = uint64(3)
	const future = int64(1) << 40 // keeps long-lived entries off the heap top
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

// TestIDIndexWraparound pins dense-ID indexing across an ID-space
// wraparound: IDs that collide under the slot mask force growth until both
// live entries fit, exactly like slotRing.
func TestIDIndexWraparound(t *testing.T) {
	x := newIDIndex()
	// Two IDs idTableInitial apart collide in the initial table.
	a, b := uint64(5), uint64(5+idTableInitial)
	x.Put(a, 1)
	x.Put(b, 2)
	if va, ok := x.Get(a); !ok || va != 1 {
		t.Fatalf("Get(a) = %d, %v after collision growth", va, ok)
	}
	if vb, ok := x.Get(b); !ok || vb != 2 {
		t.Fatalf("Get(b) = %d, %v after collision growth", vb, ok)
	}
	// ID-space wraparound: the sequential allocator rolling over from the
	// top of the uint64 range to small IDs must keep both ends live (the
	// top ID's slot bits are all ones, the restart's nearly all zeros).
	top, restart := ^uint64(0), uint64(1)
	x.Put(top, 3)
	x.Put(restart, 4)
	for _, c := range []struct {
		id   uint64
		want int
	}{{a, 1}, {b, 2}, {top, 3}, {restart, 4}} {
		if v, ok := x.Get(c.id); !ok || v != c.want {
			t.Fatalf("Get(%d) = %d, %v, want %d", c.id, v, ok, c.want)
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
// operation in steady state, mirroring the slot-ring guard: once the heap
// and its dense index are sized, push/lookup/pop cycles must not allocate.
func TestReleaseQueueSteadyStateAllocs(t *testing.T) {
	q := newReleaseQueue()
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
