package core

import (
	"testing"

	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// Multi-channel / multi-rank topology tests: the per-channel controller
// fan-out, the single-channel golden equivalence, and the service overlap a
// second channel buys.

// withTopology returns cfg configured for the given module topology.
func withTopology(cfg Config, channels, ranks int) Config {
	cfg.Topology = dram.Topology{Channels: channels, Ranks: ranks}
	return cfg
}

// runTopo builds and runs one system.
func runTopo(t *testing.T, cfg Config, k workload.Kernel) Result {
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

// TestTopologyExplicitSingleIsIdentical pins the refactor's safety net end
// to end: an explicit 1-channel/1-rank topology must be bit-identical to
// the zero-value (legacy) configuration — same cycles, same statistics —
// on both engines. (The absolute legacy numbers are pinned separately by
// TestGoldenCycleCounts, which runs the zero-value topology.)
func TestTopologyExplicitSingleIsIdentical(t *testing.T) {
	gemver := workload.PBGemver(48)
	latmem := workload.LatMemRd(256<<10, 2000)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"scaled", TimeScalingA57()},
		{"unscaled", NoTimeScaling()},
		{"ref1ghz", Reference1GHz()},
	} {
		for _, k := range []workload.Kernel{gemver, latmem} {
			t.Run(c.name+"/"+k.Name, func(t *testing.T) {
				legacy := runTopo(t, c.cfg, k)
				explicit := runTopo(t, withTopology(c.cfg, 1, 1), k)
				if legacy.ProcCycles != explicit.ProcCycles || legacy.GlobalCycles != explicit.GlobalCycles {
					t.Fatalf("cycles diverge: %d/%d vs %d/%d",
						legacy.ProcCycles, legacy.GlobalCycles, explicit.ProcCycles, explicit.GlobalCycles)
				}
				if legacy.CPU != explicit.CPU || legacy.Ctrl != explicit.Ctrl || legacy.Chip != explicit.Chip {
					t.Fatalf("statistics diverge:\n%+v\n%+v", legacy, explicit)
				}
			})
		}
	}
}

// TestMultiChannelDeterministic pins reproducibility of the per-channel
// fan-out: identical multi-channel runs are bit-identical, on both engines.
func TestMultiChannelDeterministic(t *testing.T) {
	k := workload.PBGemver(48)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"scaled-2ch2rk", withTopology(TimeScalingA57(), 2, 2)},
		{"unscaled-2ch2rk", withTopology(NoTimeScaling(), 2, 2)},
		{"scaled-4ch", withTopology(TimeScalingA57(), 4, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := runTopo(t, c.cfg, k), runTopo(t, c.cfg, k)
			if a.ProcCycles != b.ProcCycles || a.GlobalCycles != b.GlobalCycles ||
				a.CPU != b.CPU || a.Ctrl != b.Ctrl || a.Chip != b.Chip {
				t.Fatalf("multi-channel run not deterministic:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestMultiChannelServesEverything pins conservation across the fan-out:
// however requests spread over channels, the aggregated controller serves
// exactly the same request population as the single-channel system.
func TestMultiChannelServesEverything(t *testing.T) {
	k := workload.PBGemver(48)
	for _, cfg := range []Config{TimeScalingA57(), NoTimeScaling()} {
		base := runTopo(t, cfg, k)
		for _, shape := range [][2]int{{2, 1}, {1, 2}, {2, 2}} {
			multi := runTopo(t, withTopology(cfg, shape[0], shape[1]), k)
			if multi.Ctrl.Served != base.Ctrl.Served ||
				multi.Ctrl.Reads != base.Ctrl.Reads || multi.Ctrl.Writes != base.Ctrl.Writes {
				t.Fatalf("%dch/%drk request population diverges: served %d/%d reads %d/%d writes %d/%d",
					shape[0], shape[1], multi.Ctrl.Served, base.Ctrl.Served,
					multi.Ctrl.Reads, base.Ctrl.Reads, multi.Ctrl.Writes, base.Ctrl.Writes)
			}
			if multi.CPU != base.CPU {
				t.Fatalf("%dch/%drk CPU-visible behaviour diverges:\n%+v\n%+v", shape[0], shape[1], multi.CPU, base.CPU)
			}
		}
	}
}

// TestMultiChannelOverlap pins the workload-level win: on parallel miss
// traffic a second channel overlaps service and the workload finishes in
// fewer emulated cycles than the single-channel run.
func TestMultiChannelOverlap(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.CPU.MLP = 8
	k := workload.SubstrateRowBurst(2048)
	one := runTopo(t, cfg, k)
	two := runTopo(t, withTopology(cfg, 2, 1), k)
	if two.ProcCycles >= one.ProcCycles {
		t.Fatalf("2-channel run (%d cycles) not faster than 1-channel (%d cycles)",
			two.ProcCycles, one.ProcCycles)
	}
}

// TestMultiRankTurnaround pins the shared-bus model: rank-interleaved
// traffic on a 2-rank channel pays rank switches (counted by the
// controller), and because the controller spaces them, the module's bus
// tracker sees no violations.
func TestMultiRankTurnaround(t *testing.T) {
	cfg := withTopology(TimeScalingA57(), 1, 2)
	res := runTopo(t, cfg, workload.RandomAccess(256<<20, 4096))
	if res.Ctrl.RankSwitches == 0 {
		t.Fatalf("random traffic over 2 ranks recorded no rank switches")
	}
	if res.Chip.RankSwitchViolations != 0 {
		t.Fatalf("controller violated the rank-to-rank turnaround %d times", res.Chip.RankSwitchViolations)
	}
	// A single-rank run of the same traffic records none.
	one := runTopo(t, withTopology(TimeScalingA57(), 1, 1), workload.RandomAccess(256<<20, 4096))
	if one.Ctrl.RankSwitches != 0 || one.Chip.RankSwitchViolations != 0 {
		t.Fatalf("single-rank run recorded rank activity: %+v", one.Ctrl)
	}
}

// TestMultiChannelSchedulers pins per-channel scheduler instances: BLISS
// (stateful) clones per channel and runs deterministically; a custom
// scheduler without ChannelScheduler is rejected on multi-channel shapes.
func TestMultiChannelSchedulers(t *testing.T) {
	cfg := withTopology(TimeScalingA57(), 2, 1)
	cfg.Scheduler = smc.NewBLISS()
	a := runTopo(t, cfg, workload.PBGemver(48))
	cfg2 := withTopology(TimeScalingA57(), 2, 1)
	cfg2.Scheduler = smc.NewBLISS()
	b := runTopo(t, cfg2, workload.PBGemver(48))
	if a.ProcCycles != b.ProcCycles {
		t.Fatalf("BLISS multi-channel runs diverge: %d vs %d", a.ProcCycles, b.ProcCycles)
	}

	bad := withTopology(TimeScalingA57(), 2, 1)
	bad.Scheduler = statefulNoClone{}
	if _, err := NewSystem(bad); err == nil {
		t.Fatalf("stateful scheduler without CloneForChannel must be rejected on 2 channels")
	}
	ok := withTopology(TimeScalingA57(), 1, 1)
	ok.Scheduler = statefulNoClone{}
	if _, err := NewSystem(ok); err != nil {
		t.Fatalf("single channel must accept any scheduler: %v", err)
	}
}

// statefulNoClone is a custom scheduler that does not implement
// smc.ChannelScheduler.
type statefulNoClone struct{}

func (statefulNoClone) Name() string { return "stateful-no-clone" }
func (statefulNoClone) Pick(table []smc.Entry, openRows []int) int {
	return smc.FCFS{}.Pick(table, openRows)
}

// TestProfileRowRoutesToOwningChannel pins the host-profiling row
// alignment under channel interleaving: a profile request for an address
// on channel 1 must be served by channel 1's controller against channel
// 1's silicon (a plain low-bit row mask would clear the interleave bits
// and silently profile channel 0).
func TestProfileRowRoutesToOwningChannel(t *testing.T) {
	cfg := withTopology(TimeScalingA57(), 2, 1)
	cfg.DRAM = TechniqueDRAM()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With line interleave, the second cache line lives on channel 1.
	pa := uint64(64)
	if got := sys.mapper.Map(pa).Chan; got != 1 {
		t.Fatalf("test premise: line 1 on channel %d, want 1", got)
	}
	if _, _, err := sys.ProfileRow(pa, sys.Chip().Timing().TRCD); err != nil {
		t.Fatal(err)
	}
	if got := sys.chans[1].ctl.Stats().ProfileRows; got != 1 {
		t.Fatalf("channel 1 served %d profile rows, want 1", got)
	}
	if got := sys.chans[0].ctl.Stats().ProfileRows; got != 0 {
		t.Fatalf("channel 0 served %d profile rows, want 0", got)
	}
}

// TestRowCloneRejectsCrossChannel pins the controller guard: a RowClone
// whose source decodes to a different channel than its destination must
// fail rather than clone the serving channel's same-coordinate row.
func TestRowCloneRejectsCrossChannel(t *testing.T) {
	cfg := withTopology(TimeScalingA57(), 2, 1)
	cfg.DRAM = TechniqueDRAM()
	cfg.DRAM.ClonableFraction = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent lines sit on different channels under line interleave.
	src, dst := uint64(0), uint64(64)
	if sys.mapper.Map(src).Chan == sys.mapper.Map(dst).Chan {
		t.Fatalf("test premise: addresses share a channel")
	}
	ok, err := sys.TestRowClone(src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("cross-channel RowClone reported success")
	}
}

// TestTopologyValidation pins the configuration guardrails.
func TestTopologyValidation(t *testing.T) {
	for _, shape := range [][2]int{{3, 1}, {2, 3}} {
		cfg := withTopology(TimeScalingA57(), shape[0], shape[1])
		if _, err := NewSystem(cfg); err == nil {
			t.Fatalf("topology %v must be rejected", shape)
		}
	}
}
