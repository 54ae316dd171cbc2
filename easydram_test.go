package easydram

import (
	"testing"
)

func TestNewSystemDefault(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	res, err := sys.Run(NewKernel("tiny", func(g *Gen) {
		for i := 0; i < 256; i++ {
			g.Load(uint64(i) * 64)
			g.Compute(2)
		}
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ProcCycles == 0 || res.CPU.Loads != 256 {
		t.Fatalf("result = %+v", res)
	}
}

func TestOptionsCompose(t *testing.T) {
	sys, err := NewSystem(TimeScaled(), WithSeed(7), WithScheduler("fcfs"), WithRefresh(false), WithMaxCycles(1<<30))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cfg := sys.Config()
	if cfg.DRAM.Seed != 7 || cfg.RefreshEnabled || cfg.Scheduler.Name() != "fcfs" {
		t.Fatalf("options not applied: %+v", cfg)
	}
}

func TestWithTopologyOption(t *testing.T) {
	sys, err := NewSystem(TimeScaled(), WithTopology(2, 2), WithInterleave("row"))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cfg := sys.Config()
	if cfg.Topology.Channels != 2 || cfg.Topology.Ranks != 2 {
		t.Fatalf("topology not applied: %+v", cfg.Topology)
	}
	res, err := sys.Run(NewKernel("spread", func(g *Gen) {
		for i := 0; i < 1024; i++ {
			g.Load(uint64(i) * 64)
		}
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CPU.Loads != 1024 || res.Ctrl.Served == 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := NewSystem(WithTopology(3, 1)); err == nil {
		t.Fatalf("non-power-of-two channel count must fail")
	}
	if _, err := NewSystem(WithTopology(2, 1), WithInterleave("diagonal")); err == nil {
		t.Fatalf("unknown interleave name must fail")
	}
}

func TestNoTimeScalingOption(t *testing.T) {
	sys, err := NewSystem(NoTimeScaling())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config().Scaling {
		t.Fatalf("NoTimeScaling must disable scaling")
	}
}

func TestValidationPairAgrees(t *testing.T) {
	scaled, ref := ValidationPair()
	k := NewKernel("v", func(g *Gen) {
		for i := 0; i < 500; i++ {
			g.Load(uint64(i) * 4096)
			g.Compute(20)
		}
	})
	s1, err := NewSystem(scaled)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystem(ref)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(r1.ProcCycles-r2.ProcCycles) / float64(r2.ProcCycles)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01 {
		t.Fatalf("validation pair differs by %.3f%%", 100*diff)
	}
}

func TestMapAddrAndRowBytes(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.RowBytes() != 8192 {
		t.Fatalf("RowBytes = %d", sys.RowBytes())
	}
	bank, row, col := sys.MapAddr(8192)
	if bank != 1 || row != 0 || col != 0 {
		t.Fatalf("MapAddr(8192) = (%d,%d,%d)", bank, row, col)
	}
}

func TestProfileLineFacade(t *testing.T) {
	sys, err := NewSystem(TimeScaled(), WithDataTracking())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sys.ProfileLine(0, 13500)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("nominal profiling must pass")
	}
}

func TestPlannerCopyPlan(t *testing.T) {
	sys, err := NewSystem(TimeScaled())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(sys, 2)
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	src, err := p.AllocArray(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.PlanCopy(src, 64<<10, false)
	if err != nil {
		t.Fatalf("PlanCopy: %v", err)
	}
	if len(plan.Actions) != 8 {
		t.Fatalf("64 KiB should need 8 row actions, got %d", len(plan.Actions))
	}
	// The plan is runnable end to end.
	runner, err := NewSystem(TimeScaled())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(plan.Kernel())
	if err != nil {
		t.Fatalf("running plan: %v", err)
	}
	if res.CPU.RowClones == 0 {
		t.Fatalf("plan performed no RowClones")
	}
}

func TestProfileWeakRowsFacade(t *testing.T) {
	sys, err := NewSystem(TimeScaled(), WithDataTracking())
	if err != nil {
		t.Fatal(err)
	}
	provider, weakFrac, err := sys.ProfileWeakRows(0, 64*8192, ReducedTRCD, 0.01)
	if err != nil {
		t.Fatalf("ProfileWeakRows: %v", err)
	}
	if weakFrac < 0 || weakFrac > 1 {
		t.Fatalf("weak fraction %v", weakFrac)
	}
	// The provider must be usable as a system option.
	fast, err := NewSystem(TimeScaled(), WithReducedTRCD(provider))
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
		t.Fatalf("reduced-tRCD run corrupted %d reads", res.Chip.CorruptedReads)
	}
}

func TestRamulatorBaselineOption(t *testing.T) {
	sys, err := NewSystem(RamulatorBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Config().DRAM.Ideal {
		t.Fatalf("baseline must be ideal")
	}
}

func TestWithFaultsOption(t *testing.T) {
	fc := DefaultFaults()
	sys, err := NewSystem(TimeScaled(), WithFaults(fc), WithMitigation("trr"))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cfg := sys.Config()
	if !cfg.Faults.Enabled() || !cfg.Faults.Recovery.Enabled || cfg.Mitigation.Policy != "trr" {
		t.Fatalf("fault options not applied: %+v", cfg.Faults)
	}
	res, err := sys.Run(NewKernel("tiny", func(g *Gen) {
		for i := 0; i < 512; i++ {
			g.Load(uint64(i) * 64)
		}
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ProcCycles == 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := NewSystem(WithMitigation("bogus")); err == nil {
		t.Fatal("unknown mitigation policy accepted")
	}
	if _, err := NewSystem(WithFaults(FaultConfig{Chip: fc.Chip, Link: fc.Link})); err == nil {
		t.Fatal("link faults without recovery accepted")
	}
}

func TestWithCoresFacade(t *testing.T) {
	sys, err := NewSystem(NoTimeScaling(), WithCores(2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config().Cores != 2 {
		t.Fatalf("WithCores not applied: %+v", sys.Config().Cores)
	}
	hog := NewKernel("hog", func(g *Gen) {
		for i := 0; i < 2048; i++ {
			g.Load(uint64(i) * 64)
		}
	})
	chase := NewKernel("chase", func(g *Gen) {
		for i := 0; i < 256; i++ {
			g.Load(uint64(i%64) * 8192)
		}
	})
	res, err := sys.RunKernels([]Kernel{hog, chase})
	if err != nil {
		t.Fatalf("RunKernels: %v", err)
	}
	if len(res.PerCore) != 2 || res.PerCore[0].ProcCycles == 0 || res.PerCore[1].ProcCycles == 0 {
		t.Fatalf("per-core results missing: %+v", res.PerCore)
	}
	if res.ProcCycles < res.PerCore[0].ProcCycles || res.ProcCycles < res.PerCore[1].ProcCycles {
		t.Fatalf("makespan %d below a core's completion", res.ProcCycles)
	}

	mix, err := MixByName("mixed")
	if err != nil {
		t.Fatalf("MixByName: %v", err)
	}
	mixSys, err := NewSystem(NoTimeScaling(), WithCores(2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mres, err := mixSys.RunMix(mix)
	if err != nil {
		t.Fatalf("RunMix: %v", err)
	}
	if len(mres.PerCore) != 2 {
		t.Fatalf("RunMix per-core results: %+v", mres.PerCore)
	}
	if len(Mixes()) != 3 {
		t.Fatalf("want 3 mixes, got %d", len(Mixes()))
	}

	// Kernel-count mismatch and single-kernel Run on a multi-core system
	// must both be rejected.
	if _, err := mixSys.RunKernels([]Kernel{hog}); err == nil {
		t.Fatal("kernel-count mismatch accepted")
	}
	two, err := NewSystem(NoTimeScaling(), WithCores(2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := two.Run(hog); err == nil {
		t.Fatal("Run on a multi-core system accepted")
	}
}

// TestRunNilBodyKernel checks that a kernel built without a body runs as an
// empty program: Run returns a zero-cycle result, and no producer goroutine
// is left to call the nil body after Run has returned.
func TestRunNilBodyKernel(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(NewKernel("empty", nil))
	if err != nil || res.ProcCycles != 0 || res.CPU.Instructions != 0 {
		t.Fatalf("Run = %+v, %v; want an empty run", res, err)
	}
}
