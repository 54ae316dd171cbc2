package easydram

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"easydram/internal/snapshot"
)

// profilingSystem builds a fresh data-tracking system for characterization
// with the given seed; warm-start correctness depends on every build with
// the same seed deriving the same compatibility key.
func profilingSystem(t *testing.T, seed uint64) *System {
	t.Helper()
	sys, err := NewSystem(TimeScaled(), WithDataTracking(), WithSeed(seed))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestWarmStartFacade(t *testing.T) {
	const extent = 64 * 8192
	path := filepath.Join(t.TempDir(), "p.ezdrprof")

	// Cold start: the store is absent, so this characterizes fresh, saves,
	// and must NOT report a fallback (missing ≠ degraded).
	cold, warm, fallback, err := profilingSystem(t, 3).ProfileWeakRowsWarm(path, 0, extent, ReducedTRCD, 0.01)
	if err != nil {
		t.Fatalf("cold warm-start: %v", err)
	}
	if warm {
		t.Error("first run reported warm with no store on disk")
	}
	if fallback != nil {
		t.Errorf("cold start from an absent store reported fallback %v", fallback)
	}

	// Warm start: a fresh system with the same seed loads the stored
	// profile, and the loaded artifact is bit-identical to the computed one.
	hot, warm, fallback, err := profilingSystem(t, 3).ProfileWeakRowsWarm(path, 0, extent, ReducedTRCD, 0.01)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if !warm || fallback != nil {
		t.Errorf("second run did not use the stored profile (fallback %v)", fallback)
	}
	if !reflect.DeepEqual(hot.p, cold.p) {
		t.Error("loaded profile differs from the characterized one")
	}

	// The warm profile drives a run through its provider.
	provider := hot.Provider(profilingSystem(t, 3), ReducedTRCD)
	fast, err := NewSystem(TimeScaled(), WithSeed(3), WithReducedTRCD(provider))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fast.Run(NewKernel("touch", func(g *Gen) {
		for i := 0; i < 512; i++ {
			g.Load(uint64(i) * 512)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip.CorruptedReads != 0 {
		t.Fatalf("profile-driven reduced-tRCD run corrupted %d reads", res.Chip.CorruptedReads)
	}

	// A stale store (different silicon seed) must degrade: a key-mismatch
	// fallback, fresh characterization, no error.
	_, warm, fallback, err = profilingSystem(t, 4).ProfileWeakRowsWarm(path, 0, extent, ReducedTRCD, 0.01)
	if err != nil {
		t.Fatalf("stale-store warm-start: %v", err)
	}
	if warm {
		t.Error("profile keyed to other silicon was accepted")
	}
	if !errors.Is(fallback, snapshot.ErrKeyMismatch) {
		t.Errorf("stale store fallback %v, want ErrKeyMismatch", fallback)
	}

	// A corrupt store likewise degrades gracefully.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, warm, fallback, err = profilingSystem(t, 4).ProfileWeakRowsWarm(path, 0, extent, ReducedTRCD, 0.01)
	if err != nil {
		t.Fatalf("corrupt-store warm-start: %v", err)
	}
	if warm {
		t.Error("corrupt profile was accepted")
	}
	if fallback == nil {
		t.Error("corrupt store reported no fallback")
	}
}

// TestMultiChannelCharacterize pins the lifted single-channel restriction:
// a 2-channel, 2-rank module characterizes end to end, covers both
// channels, and its provider reduces tRCD somewhere while never corrupting
// a read.
func TestMultiChannelCharacterize(t *testing.T) {
	sys, err := NewSystem(TimeScaled(), WithDataTracking(), WithSeed(5), WithTopology(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	const extent = 64 * 8192
	p, err := sys.Characterize(0, extent, ReducedTRCD, 0.01)
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	if p.Channels() != 2 {
		t.Fatalf("2-channel module characterized %d channels", p.Channels())
	}
	if p.Rows() == 0 {
		t.Fatal("no rows profiled")
	}

	provider := p.Provider(sys, ReducedTRCD)
	fast, err := NewSystem(TimeScaled(), WithSeed(5), WithTopology(2, 2), WithReducedTRCD(provider))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fast.Run(NewKernel("touch", func(g *Gen) {
		for i := 0; i < 2048; i++ {
			g.Load(uint64(i) * 512)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip.CorruptedReads != 0 {
		t.Fatalf("multi-channel reduced-tRCD run corrupted %d reads", res.Chip.CorruptedReads)
	}
}

func checkpointKernel() Kernel {
	return NewKernel("ckpt", func(g *Gen) {
		for i := 0; i < 4096; i++ {
			g.Load(uint64(i) * 64)
			g.Compute(4)
		}
	})
}

func TestCheckpointRestoreFacade(t *testing.T) {
	newSys := func() *System {
		sys, err := NewSystem(TimeScaled(), WithSeed(2))
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}
	k := checkpointKernel()

	base, err := newSys().Run(k)
	if err != nil {
		t.Fatalf("base run: %v", err)
	}

	ckRes, blob, err := newSys().Checkpoint(k, base.ProcCycles/2)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !reflect.DeepEqual(ckRes, base) {
		t.Error("requesting a checkpoint changed the run result")
	}
	if blob == nil {
		t.Fatal("no quiescent point found mid-run (kernel should quiesce between loads)")
	}

	// Round-trip the blob through the durable store.
	path := filepath.Join(t.TempDir(), "run.ezdrckpt")
	if err := SaveSnapshot(path, blob); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}

	restored, err := newSys().Restore(k, loaded)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(restored, base) {
		t.Error("restored run is not bit-identical to the uninterrupted run")
	}

	// Degradation: corrupt blobs and mismatched configurations are named
	// errors, never panics.
	bad := append([]byte(nil), loaded...)
	bad[len(bad)/2] ^= 0x01
	if _, err := newSys().Restore(k, bad); err == nil {
		t.Error("corrupt blob restored silently")
	}
	other, err := NewSystem(TimeScaled(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Restore(k, loaded); err == nil {
		t.Error("blob restored into a differently-configured system")
	} else if !errors.Is(err, snapshot.ErrKeyMismatch) {
		t.Errorf("mismatched config: %v, want ErrKeyMismatch", err)
	}
}
