package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"easydram/internal/fault"
	"easydram/internal/workload"
)

// Host-parallel shard-runner tests. Config.ShardWorkers is a pure host-side
// parallelism knob: every emulated counter, statistic, and mark must be
// byte-identical at any worker count, on both engines, with faults armed or
// not — and the worker-count-1 path must carry zero shard overhead (no
// allocations, no pool).

// mlp8 widens the A57 core so a full RowBurstDepth group can be outstanding
// together.
func mlp8(cfg Config) Config {
	cfg.CPU.MLP = 8
	return cfg
}

// unscaledOoO is the no-time-scaling configuration with an out-of-order
// core (MLP 8) at the physical clock: the in-order Rocket blocks on every
// miss and so never holds a same-row run in the request table.
func unscaledOoO() Config {
	cfg := NoTimeScaling()
	cfg.CPU = mlp8(TimeScalingA57()).CPU
	cfg.CPU.Clock = cfg.ProcPhys
	return cfg
}

// wbRowKernel dirties whole rows line by line, flushes them (posted
// writebacks), and fences — so the controller's table fills with same-row
// writebacks that drain during the fence.
func wbRowKernel(rows int) workload.Kernel {
	return workload.Kernel{Name: "wb-rows", Body: func(g *workload.Gen) {
		const rowBytes = 8192
		for r := 0; r < rows; r++ {
			base := uint64(r) * rowBytes
			for c := 0; c < rowBytes/64; c++ {
				g.Store(base + uint64(c)*64)
			}
			for c := 0; c < rowBytes/64; c++ {
				g.Flush(base + uint64(c)*64)
			}
			g.Barrier()
		}
	}}
}

// shardFaults arms the per-channel fault seams on cfg (the injection-heavy
// profile of faultyConfig, portable to any base config).
func shardFaults(cfg Config) Config {
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

// assertResultsIdentical requires a and b bit-identical in every emulated
// dimension.
func assertResultsIdentical(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.ProcCycles != b.ProcCycles || a.GlobalCycles != b.GlobalCycles {
		t.Fatalf("%s: cycles diverge: %d/%d vs %d/%d",
			label, a.ProcCycles, a.GlobalCycles, b.ProcCycles, b.GlobalCycles)
	}
	if len(a.Marks) != len(b.Marks) {
		t.Fatalf("%s: mark counts diverge: %v vs %v", label, a.Marks, b.Marks)
	}
	for i := range a.Marks {
		if a.Marks[i] != b.Marks[i] {
			t.Fatalf("%s: marks diverge at %d: %v vs %v", label, i, a.Marks, b.Marks)
		}
	}
	if a.CPU != b.CPU {
		t.Fatalf("%s: CPU stats diverge:\n%+v\n%+v", label, a.CPU, b.CPU)
	}
	if a.L1 != b.L1 || a.L2 != b.L2 {
		t.Fatalf("%s: cache stats diverge", label)
	}
	if a.Ctrl != b.Ctrl {
		t.Fatalf("%s: controller stats diverge:\n%+v\n%+v", label, a.Ctrl, b.Ctrl)
	}
	if a.Chip != b.Chip {
		t.Fatalf("%s: chip stats diverge:\n%+v\n%+v", label, a.Chip, b.Chip)
	}
	if a.Tile != b.Tile {
		t.Fatalf("%s: tile stats diverge:\n%+v\n%+v", label, a.Tile, b.Tile)
	}
}

// TestShardWorkerByteIdentityMatrix is the identity matrix the ROADMAP
// promises: worker counts 1/2/4/8 (8 > 4 channels exercises clamping) ×
// scaled/unscaled × faults on/off, all byte-identical to the serial run. The wb-rows kernel fences with posted writebacks
// spread across the channels, so fences carry genuinely parallel work; the
// non-vacuity check at the end proves the parallel path actually engaged.
func TestShardWorkerByteIdentityMatrix(t *testing.T) {
	k := wbRowKernel(6)
	var engagedRounds int64
	for _, base := range []struct {
		name string
		cfg  Config
	}{
		{"scaled", withTopology(mlp8(TimeScalingA57()), 4, 1)},
		{"unscaled", withTopology(unscaledOoO(), 4, 1)},
	} {
		for _, faults := range []bool{false, true} {
			cfg := base.cfg
			if faults {
				cfg = shardFaults(cfg)
			}
			name := fmt.Sprintf("%s/faults=%v", base.name, faults)
			t.Run(name, func(t *testing.T) {
				serial := cfg
				serial.ShardWorkers = 1
				want := runTopo(t, serial, k)
				for _, workers := range []int{2, 4, 8} {
					c := cfg
					c.ShardWorkers = workers
					sys, err := NewSystem(c)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sys.Run(k.Stream())
					if err != nil {
						t.Fatal(err)
					}
					assertResultsIdentical(t, fmt.Sprintf("workers=%d", workers), want, got)
					rounds, _ := sys.ShardStats()
					engagedRounds += rounds
				}
			})
		}
	}
	if engagedRounds == 0 {
		t.Fatalf("identity matrix is vacuous: no shard round ever engaged")
	}
}

// TestShardWorkerErrorIdentity pins the merge's error canonicalization: a
// run that aborts (launch failures outpacing a minimal retry budget) must
// return an error at any worker count, matching the serial run's error — the
// canonically-first failure, not whichever worker hit one first.
func TestShardWorkerErrorIdentity(t *testing.T) {
	cfg := withTopology(TimeScalingA57(), 4, 1)
	cfg.Faults.Link.ExecFailRate = 0.6
	cfg.Faults.Recovery = fault.RecoveryConfig{Enabled: true, MaxRetries: 1}
	k := wbRowKernel(6)

	run := func(workers int) error {
		c := cfg
		c.ShardWorkers = workers
		sys, err := NewSystem(c)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Run(k.Stream())
		return err
	}
	serialErr := run(1)
	if serialErr == nil {
		t.Skip("fault profile did not abort the serial run; nothing to compare")
	}
	for _, workers := range []int{2, 4} {
		if err := run(workers); err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("workers=%d error diverges:\nserial: %v\nshard:  %v", workers, serialErr, err)
		}
	}
}

// TestShardCheckpointIdentity proves checkpointing is shard-neutral: a
// RunCheckpoint under N workers yields a blob byte-identical to the serial
// run's (ShardWorkers is deliberately outside CompatKey), or correctly none,
// and the full Results match.
func TestShardCheckpointIdentity(t *testing.T) {
	k := wbRowKernel(6)
	for _, base := range []struct {
		name string
		cfg  Config
	}{
		{"scaled", withTopology(TimeScalingA57(), 4, 1)},
		{"unscaled", withTopology(NoTimeScaling(), 4, 1)},
	} {
		t.Run(base.name, func(t *testing.T) {
			mid := runTopo(t, base.cfg, k).ProcCycles / 2

			capture := func(workers int) (Result, []byte) {
				cfg := base.cfg
				cfg.ShardWorkers = workers
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, blob, err := sys.RunCheckpoint(k.Stream(), mid)
				if err != nil {
					t.Fatalf("RunCheckpoint(workers=%d): %v", workers, err)
				}
				return res, blob
			}
			serialRes, serialBlob := capture(1)
			for _, workers := range []int{2, 4} {
				res, blob := capture(workers)
				assertResultsIdentical(t, fmt.Sprintf("workers=%d", workers), serialRes, res)
				if !bytes.Equal(serialBlob, blob) {
					t.Fatalf("workers=%d checkpoint blob diverges from serial (%d vs %d bytes)",
						workers, len(serialBlob), len(blob))
				}
			}
			if serialBlob == nil {
				t.Skipf("no quiescent point at or after cycle %d; blob identity vacuous", mid)
			}

			// A blob captured under sharding restores into a serial system
			// (and vice versa is the same code path): the restored run must
			// match the uninterrupted one.
			base2 := runTopo(t, base.cfg, k)
			restoredSys, err := NewSystem(base.cfg)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := restoredSys.RunRestored(k.Stream(), serialBlob)
			if err != nil {
				t.Fatalf("RunRestored: %v", err)
			}
			if !reflect.DeepEqual(restored, base2) {
				t.Fatalf("restored run diverges:\nbase     %+v\nrestored %+v", base2, restored)
			}
		})
	}
}

// TestShardWorker1PathZeroAllocs guards the serial path's zero-overhead
// contract: with one worker the round check is a single comparison, and even
// with workers configured, a round that cannot engage (fewer than two
// channels with work) allocates nothing — the pool is created only on first
// real engagement.
func TestShardWorker1PathZeroAllocs(t *testing.T) {
	build := func(cfg Config, workers int) *engine {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nch := len(sys.chans)
		return &engine{
			cfg:          sys.cfg,
			sys:          sys,
			staged:       make([][]stagedReq, nch),
			shardWorkers: workers,
		}
	}

	for _, tc := range []struct {
		name  string
		cfg   Config
		round func(e *engine) (bool, error)
	}{
		{"unscaled/workers=1", withTopology(NoTimeScaling(), 4, 1),
			func(e *engine) (bool, error) { return e.shardRoundUnscaled(true) }},
		{"scaled/workers=1", withTopology(TimeScalingA57(), 4, 1),
			func(e *engine) (bool, error) { return e.shardRoundScaled(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := build(tc.cfg, 1)
			if allocs := testing.AllocsPerRun(100, func() {
				if ran, err := tc.round(e); ran || err != nil {
					t.Fatalf("round engaged on serial path: ran=%v err=%v", ran, err)
				}
			}); allocs != 0 {
				t.Fatalf("worker-count-1 round path allocates %.1f allocs/op", allocs)
			}
		})
	}

	// Workers configured, but idle channels: the engagement check itself
	// must not allocate either (it runs at every fence/drain iteration).
	t.Run("unscaled/workers=4-idle", func(t *testing.T) {
		e := build(withTopology(NoTimeScaling(), 4, 1), 4)
		if allocs := testing.AllocsPerRun(100, func() {
			if ran, err := e.shardRoundUnscaled(true); ran || err != nil {
				t.Fatalf("round engaged with no work: ran=%v err=%v", ran, err)
			}
		}); allocs != 0 {
			t.Fatalf("idle engagement check allocates %.1f allocs/op", allocs)
		}
		if e.shard != nil {
			t.Fatalf("idle rounds created a worker pool")
		}
	})
}

// TestEffectiveShardWorkers pins the knob's resolution rules: single-channel
// always serial, zero means GOMAXPROCS, and the count clamps to channels.
func TestEffectiveShardWorkers(t *testing.T) {
	if got := effectiveShardWorkers(8, 1); got != 1 {
		t.Fatalf("single channel: got %d workers, want 1", got)
	}
	if got := effectiveShardWorkers(8, 4); got != 4 {
		t.Fatalf("clamp to channels: got %d workers, want 4", got)
	}
	if got := effectiveShardWorkers(3, 4); got != 3 {
		t.Fatalf("explicit count: got %d workers, want 3", got)
	}
	if got := effectiveShardWorkers(0, 4); got < 1 || got > 4 {
		t.Fatalf("GOMAXPROCS default out of range: %d", got)
	}
	if got := effectiveShardWorkers(0, 1); got != 1 {
		t.Fatalf("zero on single channel: got %d, want 1", got)
	}
}
