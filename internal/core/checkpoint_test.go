package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"easydram/internal/cache"
	"easydram/internal/fault"
	"easydram/internal/smc"
	"easydram/internal/snapshot"
	"easydram/internal/workload"
)

// checkpointMatrix is the configuration sweep the bit-identity guarantee is
// pinned over: both engines, multi-channel/multi-rank topologies, refresh,
// a stateful scheduler, and full fault injection with mitigation — every
// subsystem with checkpointable state.
func checkpointMatrix() []struct {
	name string
	cfg  Config
	k    workload.Kernel
} {
	bliss := TimeScalingA57()
	bliss.Scheduler = smc.NewBLISS()
	bliss.RefreshEnabled = true

	faulty := faultyConfig()
	faulty.Mitigation = fault.MitigationConfig{Policy: "trr", TRRThreshold: 4}

	// Data tracking on: writebacks populate the chip's sparse row-data
	// store, so the checkpoint carries actual DRAM contents.
	tracked := TimeScalingA57()
	tracked.DRAM = TechniqueDRAM()

	return []struct {
		name string
		cfg  Config
		k    workload.Kernel
	}{
		{"scaled", TimeScalingA57(), workload.PBGemver(48)},
		{"unscaled", NoTimeScaling(), workload.PBGemver(32)},
		{"scaled-2ch2rk", withTopology(TimeScalingA57(), 2, 2), workload.PBGemver(48)},
		{"bliss-refresh", bliss, workload.PBGemver(48)},
		{"faulty-mitigated", faulty, workload.PBGemver(32)},
		{"tracked-data", tracked, workload.PBGemver(32)},
	}
}

// TestCheckpointRestoreBitIdentity is the tentpole guarantee: a run
// checkpointed at cycle C and restored from that checkpoint produces a
// Result byte-identical to the uninterrupted run — GlobalCycles, every
// statistic, every mark — and taking the checkpoint perturbs nothing.
func TestCheckpointRestoreBitIdentity(t *testing.T) {
	for _, tc := range checkpointMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			base := mustRunKernel(t, tc.cfg, tc.k)

			sys, err := NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, blob, err := sys.RunCheckpoint(tc.k.Stream(), base.ProcCycles/2)
			if err != nil {
				t.Fatalf("RunCheckpoint: %v", err)
			}
			if !reflect.DeepEqual(ck, base) {
				t.Fatalf("taking a checkpoint perturbed the run:\nbase %+v\nckpt %+v", base, ck)
			}
			if blob == nil {
				t.Fatalf("no quiescent point reached at or after cycle %d", base.ProcCycles/2)
			}

			restoredSys, err := NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := restoredSys.RunRestored(tc.k.Stream(), blob)
			if err != nil {
				t.Fatalf("RunRestored: %v", err)
			}
			if !reflect.DeepEqual(restored, base) {
				t.Fatalf("restored run diverged:\nbase     %+v\nrestored %+v", base, restored)
			}
		})
	}
}

// TestCheckpointCarriesCacheState checkpoints right after a phase that
// leaves dirty lines in both cache levels and a flushed hole among the
// valid ways of an L2 set. The blob's cache section must hold exactly that
// state, and the restored run, whose tail refills the hole and evicts the
// set's dirty lines, must match the uninterrupted run.
func TestCheckpointCarriesCacheState(t *testing.T) {
	cfg := TimeScalingA57()
	const (
		stride = 64 << 10 // lines this far apart share an L1 set and an L2 set
		base   = 1 << 24
		region = 1 << 25
	)
	k := workload.Kernel{Name: "dirty-hole", Body: func(g *workload.Gen) {
		for i := uint64(0); i < 4; i++ {
			g.Store(base + i*stride)
		}
		g.Flush(base + stride)
		// Dirty 64 KiB that skips the lines above's L2 set. The L1 keeps
		// the last half and folds the rest, dirty, into the L2, including
		// lines 0, 2 and 3 above.
		for a := uint64(region); a < region+stride; a += 8 {
			if a/cache.LineBytes%1024 != 0 {
				g.Store(a)
			}
		}
		g.Mark()
		g.Compute(4096)
		for i := uint64(4); i < 16; i++ {
			g.Load(base + i*stride)
		}
		for a := uint64(region); a < region+stride; a += 64 {
			g.Load(a)
		}
	}}
	base0 := mustRunKernel(t, cfg, k)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, blob, err := sys.RunCheckpoint(k.Stream(), base0.Marks[0])
	if err != nil || blob == nil {
		t.Fatalf("RunCheckpoint: blob=%d err=%v", len(blob), err)
	}

	r, err := snapshot.ParseExpect(blob, snapshot.KindCheckpoint, cfg.CompatKey())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := r.Section("cache")
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDec(payload)
	h.LoadState(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !h.L2().Lookup(base) || h.L2().Lookup(base+stride) || !h.L2().Lookup(base+2*stride) || !h.L2().Lookup(base+3*stride) {
		t.Fatalf("checkpointed L2 set lacks the flushed hole between valid lines")
	}
	if h.L1().Lookup(base) {
		t.Fatalf("checkpointed L1 still holds line 0; its dirtiness never reached the L2")
	}
	if p, dirty := h.L2().Flush(base); !p || !dirty {
		t.Fatalf("checkpointed L2 line 0: present %v, dirty %v; want a dirty line", p, dirty)
	}
	if p, dirty := h.L1().Flush(region + stride - cache.LineBytes); !p || !dirty {
		t.Fatalf("checkpointed L1 last line: present %v, dirty %v; want a dirty line", p, dirty)
	}

	restoredSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := restoredSys.RunRestored(k.Stream(), blob)
	if err != nil {
		t.Fatalf("RunRestored: %v", err)
	}
	if !reflect.DeepEqual(restored, base0) {
		t.Fatalf("restored run diverged:\nbase     %+v\nrestored %+v", base0, restored)
	}
}

func mustRunKernel(t *testing.T, cfg Config, k workload.Kernel) Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(k.Stream())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointMidSlabComputeOp checkpoints both engines halfway through
// a long compute op that sits mid-slab, with ops after it in the same slab:
// the core holds the op partly consumed, so the restore must resume it as
// a one-op window and then read the rebuilt stream's slab from the op
// after it. The cpu section must show that state, and the restored run
// must match the uninterrupted one.
func TestCheckpointMidSlabComputeOp(t *testing.T) {
	const compute = 1 << 22
	k := workload.Kernel{Name: "mid-slab-compute", Body: func(g *workload.Gen) {
		for i := uint64(0); i < 100; i++ {
			g.Load(i << 20)
		}
		g.Mark()
		g.Compute(compute)
		g.Mark()
		for i := uint64(0); i < 100; i++ {
			g.Store(i<<20 + 64)
		}
	}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"scaled", TimeScalingA57()}, {"unscaled", NoTimeScaling()}} {
		t.Run(tc.name, func(t *testing.T) {
			base := mustRunKernel(t, tc.cfg, k)
			if len(base.Marks) != 2 {
				t.Fatalf("marks %v, want 2", base.Marks)
			}
			sys, err := NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, blob, err := sys.RunCheckpoint(k.Stream(), (base.Marks[0]+base.Marks[1])/2)
			if err != nil || blob == nil {
				t.Fatalf("RunCheckpoint: blob=%d err=%v", len(blob), err)
			}

			r, err := snapshot.ParseExpect(blob, snapshot.KindCheckpoint, tc.cfg.CompatKey())
			if err != nil {
				t.Fatal(err)
			}
			payload, err := r.Section("cpu")
			if err != nil {
				t.Fatal(err)
			}
			// The head of cpu.Core.SaveState: consumed ops, then the op
			// in flight and its remaining cycles.
			d := snapshot.NewDec(payload)
			consumed, inFlight := d.U64(), d.Bool()
			kind, n := workload.OpKind(d.Byte()), d.I64()
			d.U64()
			d.U64()
			d.Bool()
			remaining := d.I64()
			// 100 loads, the barrier and mark, then the compute op.
			if consumed != 103 || !inFlight || kind != workload.OpCompute || n != compute || remaining <= 0 || remaining >= compute {
				t.Fatalf("checkpoint at op %d (in flight %v, %v N=%d, %d cycles left), want mid-way through compute op 103",
					consumed, inFlight, kind, n, remaining)
			}

			restoredSys, err := NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := restoredSys.RunRestored(k.Stream(), blob)
			if err != nil {
				t.Fatalf("RunRestored: %v", err)
			}
			if restored.Digest() != base.Digest() || !reflect.DeepEqual(restored, base) {
				t.Fatalf("restored run diverged:\nbase     %+v\nrestored %+v", base, restored)
			}
		})
	}
}

// TestCheckpointPastEndIsGraceful pins the no-quiescent-point fallback: a
// checkpoint requested beyond the run's end returns a nil blob, no error,
// and an unperturbed Result.
func TestCheckpointPastEndIsGraceful(t *testing.T) {
	cfg := TimeScalingA57()
	k := workload.PBGemver(32)
	base := mustRunKernel(t, cfg, k)

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, blob, err := sys.RunCheckpoint(k.Stream(), base.ProcCycles+1)
	if err != nil {
		t.Fatalf("RunCheckpoint: %v", err)
	}
	if blob != nil {
		t.Fatalf("expected nil blob past run end, got %d bytes", len(blob))
	}
	if !reflect.DeepEqual(res, base) {
		t.Fatalf("unreached checkpoint perturbed the run")
	}
}

// TestRestoreRejectsBadBlobs pins the graceful-degradation contract at the
// core seam: every corrupted or mismatched checkpoint yields a named error,
// never a panic and never a half-restored run.
func TestRestoreRejectsBadBlobs(t *testing.T) {
	cfg := TimeScalingA57()
	k := workload.PBGemver(32)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := mustRunKernel(t, cfg, k).ProcCycles / 2
	_, blob, err := sys.RunCheckpoint(k.Stream(), mid)
	if err != nil || blob == nil {
		t.Fatalf("RunCheckpoint: blob=%d err=%v", len(blob), err)
	}

	newSys := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("flipped-byte", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x40
		if _, err := newSys().RunRestored(k.Stream(), bad); err == nil {
			t.Fatal("corrupted checkpoint restored without error")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := newSys().RunRestored(k.Stream(), blob[:len(blob)/3]); err == nil {
			t.Fatal("truncated checkpoint restored without error")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := newSys().RunRestored(k.Stream(), nil); !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("key-mismatch", func(t *testing.T) {
		other := cfg
		other.RefreshEnabled = !other.RefreshEnabled
		s, err := NewSystem(other)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunRestored(k.Stream(), blob); !errors.Is(err, snapshot.ErrKeyMismatch) {
			t.Fatalf("err = %v, want ErrKeyMismatch", err)
		}
	})
	// The key lost Config.MemPathLatency in core:v4, and core:v5 encodes
	// the caches as tag and recency words, so a blob under either older
	// key must not restore.
	for _, old := range []string{"v3", "v4"} {
		t.Run(old+"-key", func(t *testing.T) {
			key := cfg.CompatKey()
			if !strings.HasPrefix(key, "core:v5|") {
				t.Fatalf("CompatKey %q does not start with core:v5|", key)
			}
			w := snapshot.NewWriter(snapshot.KindCheckpoint, "core:"+old+"|"+strings.TrimPrefix(key, "core:v5|"))
			w.Section("engine", nil)
			if _, err := newSys().RunRestored(k.Stream(), w.Bytes()); !errors.Is(err, snapshot.ErrKeyMismatch) {
				t.Fatalf("err = %v, want ErrKeyMismatch", err)
			}
		})
	}
	t.Run("wrong-kind", func(t *testing.T) {
		w := snapshot.NewWriter(snapshot.KindProfile, cfg.CompatKey())
		if _, err := newSys().RunRestored(k.Stream(), w.Bytes()); !errors.Is(err, snapshot.ErrBadKind) {
			t.Fatalf("err = %v, want ErrBadKind", err)
		}
	})
	t.Run("shorter-stream", func(t *testing.T) {
		short := workload.NewSliceStream(pointerChase(2, 4096))
		if _, err := newSys().RunRestored(short, blob); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt (stream exhausted during replay)", err)
		}
	})
}
