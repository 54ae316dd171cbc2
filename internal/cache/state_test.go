package cache

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"easydram/internal/snapshot"
)

// saveHier returns h's checkpoint payload.
func saveHier(h *Hierarchy) []byte {
	var e snapshot.Enc
	h.SaveState(&e)
	return e.Payload()
}

// loadHier restores payload into a fresh hierarchy of cfg's geometry.
func loadHier(t *testing.T, cfg HierConfig, payload []byte) (*Hierarchy, error) {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDec(payload)
	h.LoadState(d)
	return h, d.Finish()
}

// TestHierarchyStateRoundTrip checkpoints a hierarchy holding dirty lines in
// both levels and a set with a flushed way among valid ones, restores it,
// and runs the same op stream on the original and the restored copy: every
// result, tag word, recency word and counter must match.
func TestHierarchyStateRoundTrip(t *testing.T) {
	cfg := HierConfig{L1Size: 8 * LineBytes, L1Assoc: 2, L2Size: 32 * LineBytes, L2Assoc: 4}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	lines := 3 * cfg.L2Size / LineBytes
	step := func(h *Hierarchy, op, line int) (int, []uint64) {
		addr := uint64(line) * LineBytes
		if op == 0 {
			if h.Flush(addr) {
				return 0, []uint64{addr}
			}
			return 0, nil
		}
		level, wbs := h.Access(addr, op < 4)
		return level, slices.Clone(wbs)
	}
	for i := 0; i < 5000; i++ {
		step(h, rng.Intn(10), rng.Intn(lines))
	}
	// Fill L2 set 3 with fresh lines, then flush its second way's line to
	// leave a hole between valid ways.
	base := 3 * cfg.L2Assoc
	sets := uint64(len(h.l2.recency))
	for k := uint64(0); slices.Contains(h.l2.tags[base:base+cfg.L2Assoc], 0); k++ {
		h.Access(((1000+k)*sets+3)*LineBytes, true)
	}
	h.Flush(h.l2.lineAddr(3, h.l2.tags[base+1]>>2))
	if len(dirtyLines(h.l1)) == 0 || len(dirtyLines(h.l2)) == 0 {
		t.Fatalf("weak state: L1 dirty %v, L2 dirty %v", dirtyLines(h.l1), dirtyLines(h.l2))
	}
	if set := h.l2.tags[base : base+cfg.L2Assoc]; set[1] != 0 || set[0] == 0 || set[2] == 0 {
		t.Fatalf("L2 set 3 = %#x, want a hole at way 1 between valid ways", set)
	}

	restored, err := loadHier(t, cfg, saveHier(h))
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	for i := 0; i < 5000; i++ {
		op, line := rng.Intn(10), rng.Intn(lines)
		gl, gw := step(restored, op, line)
		wl, ww := step(h, op, line)
		if gl != wl || !slices.Equal(gw, ww) {
			t.Fatalf("op %d: restored (%d, %#x), original (%d, %#x)", i, gl, gw, wl, ww)
		}
	}
	for _, pair := range [][2]*Cache{{restored.l1, h.l1}, {restored.l2, h.l2}} {
		got, want := pair[0], pair[1]
		if !slices.Equal(got.tags, want.tags) || !slices.Equal(got.recency, want.recency) || got.Stats() != want.Stats() {
			t.Fatalf("%s diverged after restore", want.Name())
		}
	}
}

// TestLoadStateRejectsBadWords corrupts one tag word and one recency word
// of a checkpoint payload: each must fail the decode as corrupt, not load.
func TestLoadStateRejectsBadWords(t *testing.T) {
	cfg := HierConfig{L1Size: 8 * LineBytes, L1Assoc: 2, L2Size: 32 * LineBytes, L2Assoc: 4}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, true)
	good := saveHier(h)
	if _, err := loadHier(t, cfg, good); err != nil {
		t.Fatalf("clean payload: %v", err)
	}
	// The L1 payload is its line count, 8 tag words, then 4 recency words.
	for name, c := range map[string]struct {
		at   int
		word uint64
	}{
		"dirty-without-valid": {at: 1, word: dirtyBit},
		"repeated-way":        {at: 9, word: 0x00},
		"way-out-of-range":    {at: 9, word: 0x21},
		"high-nibble-set":     {at: 9, word: 0x110},
	} {
		bad := slices.Clone(good)
		off := 8 * c.at
		for i := range 8 {
			bad[off+i] = byte(c.word >> (8 * i))
		}
		if _, err := loadHier(t, cfg, bad); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
