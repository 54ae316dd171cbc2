package cache

import (
	"testing"
	"testing/quick"
)

func newTestCache(t *testing.T, size, assoc int) *Cache {
	t.Helper()
	c, err := New("test", size, assoc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 0, 4); err == nil {
		t.Fatalf("zero size must fail")
	}
	if _, err := New("bad", 4096, 0); err == nil {
		t.Fatalf("zero associativity must fail")
	}
	if _, err := New("bad", 4096+64, 4); err == nil {
		t.Fatalf("non-power-of-two sets must fail")
	}
	// The recency word holds one 4-bit way number per way.
	if _, err := New("bad", 32*LineBytes, 32); err == nil {
		t.Fatalf("associativity above 16 must fail")
	}
	if _, err := New("ok", 16*LineBytes, 16); err != nil {
		t.Fatalf("16 ways: %v", err)
	}
	// A partial line is not silently rounded down.
	for _, size := range []int{100, 4096 + 32} {
		if _, err := New("bad", size, 1); err == nil {
			t.Fatalf("size %d (not a whole number of lines) must fail", size)
		}
	}
}

func TestHitMiss(t *testing.T) {
	c := newTestCache(t, 4096, 4)
	if c.Access(0x1000, false) {
		t.Fatalf("cold access must miss")
	}
	c.Install(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatalf("installed line must hit")
	}
	if !c.Access(0x1020, false) {
		t.Fatalf("same-line offset must hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2 sets: lines with the same set index conflict.
	c := newTestCache(t, 4*64, 2)
	setStride := uint64(2 * 64) // two sets
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Install(a, false)
	c.Access(b, false)
	c.Install(b, false)
	// Touch a so b is LRU.
	c.Access(a, false)
	v := c.Install(d, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("expected LRU victim %x, got %+v", b, v)
	}
	if !c.Lookup(a) || c.Lookup(b) || !c.Lookup(d) {
		t.Fatalf("post-eviction contents wrong")
	}
}

func TestDirtyVictimReportsWriteback(t *testing.T) {
	c := newTestCache(t, 2*64, 1) // direct-mapped, 2 sets
	c.Access(0, true)
	c.Install(0, true)
	v := c.Install(2*64, false) // same set
	if !v.Valid || !v.Dirty {
		t.Fatalf("dirty victim not reported: %+v", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writeback not counted")
	}
}

func TestFlush(t *testing.T) {
	c := newTestCache(t, 4096, 4)
	c.Install(0x40, false)
	c.Access(0x40, true) // dirty it
	present, dirty := c.Flush(0x40)
	if !present || !dirty {
		t.Fatalf("flush = (%v,%v)", present, dirty)
	}
	if c.Lookup(0x40) {
		t.Fatalf("flushed line still present")
	}
	if p, _ := c.Flush(0x40); p {
		t.Fatalf("double flush must miss")
	}
}

func TestDirtyLines(t *testing.T) {
	c := newTestCache(t, 4096, 4)
	c.Install(0x80, true)
	c.Install(0x100, false)
	dirty := dirtyLines(c)
	if len(dirty) != 1 || dirty[0] != 0x80 {
		t.Fatalf("DirtyLines = %v", dirty)
	}
}

// Property: set/tag decomposition round-trips through lineAddr.
func TestAddrRoundTrip(t *testing.T) {
	c := newTestCache(t, 512<<10, 8)
	f := func(raw uint64) bool {
		addr := (raw % (1 << 40)) &^ 63
		set, tag := c.setOf(addr), c.tagOf(addr)
		return c.lineAddr(set, tag) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any access sequence, a cache never holds more distinct
// lines than its capacity.
func TestCapacityInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New("q", 16*64, 4)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			addr := uint64(a) * 64
			if !c.Access(addr, a%2 == 0) {
				c.Install(addr, a%2 == 0)
			}
		}
		resident := make(map[uint64]bool)
		for _, a := range addrs {
			if addr := uint64(a) * 64; c.Lookup(addr) {
				resident[addr] = true
			}
		}
		return len(resident) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(JetsonNanoHier())
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	level, _ := h.Access(0x1000, false)
	if level != 3 {
		t.Fatalf("cold access level = %d, want 3", level)
	}
	level, _ = h.Access(0x1000, false)
	if level != 1 {
		t.Fatalf("second access level = %d, want 1 (L1 hit)", level)
	}
	// Evict from L1 by filling its set (4-way) without overflowing the
	// matching L2 set (8-way), then expect an L2 hit.
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x1000+i*32768, false)
	}
	level, _ = h.Access(0x1000, false)
	if level != 2 {
		t.Fatalf("level = %d, want 2 (L2 hit)", level)
	}
}

func TestHierarchyWritebacks(t *testing.T) {
	h, err := NewHierarchy(HierConfig{L1Size: 2 * 64, L1Assoc: 1, L2Size: 4 * 64, L2Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a line, then force it out of both levels.
	h.Access(0, true)
	sawWriteback := false
	for i := uint64(1); i < 16; i++ {
		if _, wbs := h.Access(i*4*64, true); len(wbs) > 0 { // all map to set 0 of L2
			sawWriteback = true
		}
	}
	if !sawWriteback {
		t.Fatalf("thrashing dirty lines must produce writebacks")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h, err := NewHierarchy(JetsonNanoHier())
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0x2000, true)
	if !h.Flush(0x2000) {
		t.Fatalf("flushing a dirty line must request a writeback")
	}
	if h.Flush(0x2000) {
		t.Fatalf("second flush must be clean")
	}
	if !h.WouldMiss(0x2000) {
		t.Fatalf("flushed line must miss")
	}
}

func TestWouldMissDoesNotPerturb(t *testing.T) {
	h, err := NewHierarchy(JetsonNanoHier())
	if err != nil {
		t.Fatal(err)
	}
	if !h.WouldMiss(0x9000) {
		t.Fatalf("cold line should miss")
	}
	st := h.L1().Stats()
	if st.Hits+st.Misses != 0 {
		t.Fatalf("WouldMiss must not touch statistics")
	}
}
