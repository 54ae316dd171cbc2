package core

// Event structures for the emulation hot path.
//
// Every SMC step the engine needs two queries answered about outstanding
// work: "which ready responses have matured?" (and, symmetrically, "what is
// the earliest release point?") and "what is the earliest arrival among
// unserved requests?" (the refresh accounting horizon). The original
// implementation answered both by scanning Go maps, making each step O(n)
// in the number of in-flight requests and dominating the engine's CPU
// profile with map iteration. Two purpose-built structures replace those
// scans:
//
//   - releaseQueue: a slice of response release points kept sorted by
//     (release, insertion order). Min-peek and pop read the front, and
//     push, lookup and removal scan a queue that never holds more than
//     one core's outstanding non-posted misses, so the scans are short and
//     need no heap or position index. Ties pop in push order, which keeps
//     delivery deterministic (the engine's results are insensitive to
//     delivery order within one release point, but determinism must not
//     rest on that).
//
//   - arrivalRing: a FIFO of (request id, arrival key) in issue order.
//     Because the engines issue requests at monotonically nondecreasing
//     timestamps, the earliest live arrival is always at the head once
//     entries whose request already completed are skipped; each entry is
//     pushed and skipped at most once, so the amortised cost is O(1).
//
//   - slotRing: the in-flight request table, a dense slot array indexed by
//     request ID. The CPU allocates IDs sequentially from 1 and the live
//     window (MLP-bounded demand misses plus buffered posted writebacks) is
//     small, so id & mask almost never collides; insert, lookup, and remove
//     are a single indexed access with no hashing. It replaces the former
//     map[uint64]pending, whose mapaccess/mapassign/memhash calls were ~15%
//     of the substrate CPU profile.
//
// All three structures reuse their backing storage across a run.

// releaseItem is one pending response release point.
type releaseItem struct {
	id      uint64
	release int64 // emulated processor cycles (scaled) or wall ps (unscaled)
}

// releaseQueue holds one core's responses awaiting release, sorted by
// (release, insertion order). It holds at most that core's outstanding
// non-posted misses — MLP-bounded, a handful of entries — so linear scans
// over one short slice cost less than a heap's sifts and the id -> position
// index they would have to maintain.
//
// Responses leave from the front: the earliest release is popped, and the
// response a blocked core waits on is the earliest too. So items is a
// window of buf that a removal narrows from the front, after shifting the
// items ahead of the removed one up a slot, and Push slides the window
// back to the start of buf once it reaches the end. The shifts are loops
// rather than copy: on a queue this short the builtin's memmove call costs
// more than the moves it makes. The zero value is an empty queue.
type releaseQueue struct {
	items []releaseItem
	buf   []releaseItem
}

// Len reports the number of queued responses.
func (q *releaseQueue) Len() int { return len(q.items) }

// Min returns the earliest-release item. The queue must be non-empty.
func (q *releaseQueue) Min() releaseItem { return q.items[0] }

// Push inserts a release point for id after every item whose release is no
// later, so equal releases keep their push order. Releases mostly arrive in
// order, so the scan runs from the back, shifting later items down a slot.
func (q *releaseQueue) Push(id uint64, release int64) {
	if n := len(q.items); n == cap(q.items) {
		// The window reached the end of buf: move it to the start, into a
		// larger array when it fills this one.
		if n == cap(q.buf) {
			q.buf = make([]releaseItem, 2*n+8)
		}
		q.items = q.buf[:copy(q.buf, q.items)]
	}
	q.items = q.items[:len(q.items)+1]
	i := len(q.items) - 1
	for ; i > 0 && q.items[i-1].release > release; i-- {
		q.items[i] = q.items[i-1]
	}
	q.items[i] = releaseItem{id: id, release: release}
}

// PopMin removes and returns the earliest-release item.
func (q *releaseQueue) PopMin() releaseItem {
	it := q.items[0]
	q.items = q.items[1:]
	return it
}

// Release reports the release point recorded for id.
func (q *releaseQueue) Release(id uint64) (int64, bool) {
	for i := range q.items {
		if q.items[i].id == id {
			return q.items[i].release, true
		}
	}
	return 0, false
}

// Remove deletes id's entry if present.
func (q *releaseQueue) Remove(id uint64) bool {
	for i := range q.items {
		if q.items[i].id == id {
			for ; i > 0; i-- {
				q.items[i] = q.items[i-1]
			}
			q.items = q.items[1:]
			return true
		}
	}
	return false
}

// arrivalEntry records one request's arrival key (processor-cycle tag under
// scaling, wall picoseconds otherwise) in issue order.
type arrivalEntry struct {
	id  uint64
	key int64
}

// arrivalRing is a slice-backed FIFO of arrival entries. Keys are pushed in
// monotonically nondecreasing order, so the head (after skipping entries
// whose request has completed) is always the minimum live key.
type arrivalRing struct {
	buf  []arrivalEntry
	head int
}

// Push appends an arrival. Keys must be nondecreasing across pushes. When
// the skipped prefix dominates the buffer, live entries are compacted to
// the front so the backing array stays bounded by the in-flight population.
func (r *arrivalRing) Push(id uint64, key int64) {
	if r.head > 64 && r.head*2 >= len(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:n]
		r.head = 0
	}
	r.buf = append(r.buf, arrivalEntry{id: id, key: key})
}

// skipHead advances past the current head entry (its request completed) and
// recycles the backing storage once drained.
func (r *arrivalRing) skipHead() {
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
}

// idSlot is one idTable cell: the request ID it holds (0 = empty — valid
// because CPU request IDs start at 1) plus the stored value.
type idSlot[V any] struct {
	id  uint64
	val V
}

// idTable is a dense map from request IDs to values: a power-of-two slot
// array indexed by id & mask. Request IDs are allocated sequentially and
// the live window is small relative to the table, so collisions are
// effectively nonexistent; when one does occur (an entry outliving a full
// table's worth of successors), the table doubles until every live entry
// fits. Steady state performs zero allocations. slotRing (the in-flight
// request table) instantiates it.
type idTable[V any] struct {
	slots []idSlot[V]
	mask  uint64
	live  int
}

// slotRing tracks in-flight requests; it replaced a map[uint64]pending
// that was ~15% of the substrate CPU profile.
type slotRing = idTable[pending]

// idTableInitial is the starting table size; it comfortably covers the
// live window of every configured core model (MLP plus posted traffic).
const idTableInitial = 64

func newSlotRing() slotRing { return newIDTable[pending]() }

func newIDTable[V any]() idTable[V] {
	return idTable[V]{slots: make([]idSlot[V], idTableInitial), mask: idTableInitial - 1}
}

// Len reports the number of live entries.
func (r *idTable[V]) Len() int { return r.live }

// Contains reports whether id is live.
func (r *idTable[V]) Contains(id uint64) bool { return r.slots[id&r.mask].id == id }

// Get returns the value stored for id.
func (r *idTable[V]) Get(id uint64) (V, bool) {
	s := &r.slots[id&r.mask]
	if s.id != id {
		var zero V
		return zero, false
	}
	return s.val, true
}

// Put inserts (or overwrites) the value for id.
func (r *idTable[V]) Put(id uint64, v V) {
	for {
		s := &r.slots[id&r.mask]
		if s.id == id {
			s.val = v
			return
		}
		if s.id == 0 {
			s.id = id
			s.val = v
			r.live++
			return
		}
		r.grow()
	}
}

// Take removes and returns the value stored for id.
func (r *idTable[V]) Take(id uint64) (V, bool) {
	s := &r.slots[id&r.mask]
	if s.id != id {
		var zero V
		return zero, false
	}
	s.id = 0
	r.live--
	return s.val, true
}

// Delete removes id's entry if present.
func (r *idTable[V]) Delete(id uint64) bool {
	_, ok := r.Take(id)
	return ok
}

// grow doubles the table until every live entry lands in a distinct slot
// under the new mask (a single doubling almost always suffices: live IDs
// span a window no larger than the live count plus the oldest entry's age).
func (r *idTable[V]) grow() {
	n := len(r.slots) * 2
	for {
		slots := make([]idSlot[V], n)
		mask := uint64(n - 1)
		ok := true
		for i := range r.slots {
			if r.slots[i].id == 0 {
				continue
			}
			dst := &slots[r.slots[i].id&mask]
			if dst.id != 0 {
				ok = false
				break
			}
			*dst = r.slots[i]
		}
		if ok {
			r.slots, r.mask = slots, mask
			return
		}
		n *= 2
	}
}
