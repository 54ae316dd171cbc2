package core

import (
	"errors"
	"reflect"
	"testing"

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
