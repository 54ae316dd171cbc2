package core

import (
	"testing"

	"easydram/internal/fault"
	"easydram/internal/workload"
)

// faultyConfig arms every injection seam at rates high enough to fire on a
// small kernel: chip disturb with a low threshold, transient and stuck-at
// read faults, and host-link launch/readback failures, with recovery on.
func faultyConfig() Config {
	cfg := TimeScalingA57()
	cfg.Faults = fault.Config{
		Chip: fault.ChipConfig{
			DisturbEnabled:      true,
			DisturbMinThreshold: 16,
			DisturbJitter:       16,
			TransientReadRate:   0.02,
			StuckAtRate:         0.002,
		},
		Link: fault.LinkConfig{
			ExecFailRate:        0.01,
			ReadbackCorruptRate: 0.01,
			ReadbackDropRate:    0.01,
		},
		Recovery: fault.RecoveryConfig{Enabled: true},
	}
	return cfg
}

// TestArmedButIdleFaultsMatchBaseline pins the subtler half of the golden
// guarantee: not just that a zero fault config is bit-identical to the seed
// engine (the golden cycle-count tests cover that — Config.Faults zero value
// IS the pre-fault configuration), but that merely ARMING the seams — chip
// disturb counting with an unreachable threshold plus the verify-and-retry
// read path — changes no emulated counter when nothing fires.
func TestArmedButIdleFaultsMatchBaseline(t *testing.T) {
	kernel := workload.PBGemver(48)
	run := func(cfg Config) Result {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(kernel.Stream())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(TimeScalingA57())
	armed := faultyConfig()
	armed.Faults.Chip.DisturbMinThreshold = 1 << 30
	armed.Faults.Chip.DisturbJitter = 0
	armed.Faults.Chip.TransientReadRate = 0
	armed.Faults.Chip.StuckAtRate = 0
	armed.Faults.Link = fault.LinkConfig{}
	got := run(armed)
	if got.ProcCycles != base.ProcCycles || got.GlobalCycles != base.GlobalCycles {
		t.Fatalf("armed-but-idle faults drifted timing: %d/%d vs %d/%d",
			got.ProcCycles, got.GlobalCycles, base.ProcCycles, base.GlobalCycles)
	}
	if got.Ctrl.Retries != 0 || got.Chip.DisturbFlips != 0 {
		t.Fatalf("armed-but-idle faults fired: %+v", got.Ctrl)
	}
	if got.Ctrl.Served != base.Ctrl.Served || got.Ctrl.RowHits != base.Ctrl.RowHits ||
		got.Ctrl.RowMisses != base.Ctrl.RowMisses {
		t.Fatalf("controller decisions drifted:\n%+v\n%+v", got.Ctrl, base.Ctrl)
	}
}

// TestFaultRunsAreDeterministic pins that injected faults reproduce exactly:
// same seed, same fault sequence, same retries, same escaped flips —
// byte-identical statistics across runs, at one channel and at four.
func TestFaultRunsAreDeterministic(t *testing.T) {
	kernel := workload.LatMemRd(128<<10, 1200)
	for _, chans := range []int{1, 4} {
		cfg := faultyConfig()
		cfg.Topology.Channels = chans
		run := func() Result {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(kernel.Stream())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.ProcCycles != b.ProcCycles || a.GlobalCycles != b.GlobalCycles {
			t.Fatalf("chans=%d: timing diverged: %d/%d vs %d/%d",
				chans, a.ProcCycles, a.GlobalCycles, b.ProcCycles, b.GlobalCycles)
		}
		if a.Ctrl != b.Ctrl || a.Chip != b.Chip || a.Tile != b.Tile {
			t.Fatalf("chans=%d: fault statistics diverged:\n%+v\n%+v", chans, a, b)
		}
		if a.Ctrl.Retries == 0 && a.Tile.LaunchFails == 0 && a.Chip.TransientReads == 0 {
			t.Fatalf("chans=%d: fault config injected nothing: %+v / %+v", chans, a.Ctrl, a.Chip)
		}
	}
}

// TestFaultSeedChangesSequence verifies the fault seed actually flows: two
// seeds must not reproduce the same fault event counts.
func TestFaultSeedChangesSequence(t *testing.T) {
	kernel := workload.LatMemRd(128<<10, 1200)
	run := func(seed uint64) (Result, error) {
		cfg := faultyConfig()
		cfg.DRAM.Seed = seed
		sys, err := NewSystem(cfg)
		if err != nil {
			return Result{}, err
		}
		return sys.Run(kernel.Stream())
	}
	a, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ctrl == b.Ctrl && a.Chip == b.Chip && a.Tile == b.Tile {
		t.Fatalf("two seeds reproduced identical fault statistics: %+v", a.Ctrl)
	}
}

// TestRecoveryValidation pins the constructor-time guards.
func TestRecoveryValidation(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.Faults.Link.ExecFailRate = 0.01 // exec failures need recovery
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("launch-failure injection without recovery was accepted")
	}
	cfg = TimeScalingA57()
	cfg.Faults.Recovery.Enabled = true
	cfg.Faults.Recovery.SpareRows = cfg.DRAM.RowsPerBank
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("spare region swallowing the whole bank was accepted")
	}
	cfg = TimeScalingA57()
	cfg.Mitigation = fault.MitigationConfig{Policy: "unknown"}
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("unknown mitigation policy was accepted")
	}
}
