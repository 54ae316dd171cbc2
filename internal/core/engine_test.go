package core

import (
	"strings"
	"testing"

	"easydram/internal/cache"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// Engine edge-case tests beyond the smoke tests in core_test.go.

func TestMarksAndWindow(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.OpCompute, N: 100},
		{Kind: workload.OpBarrier},
		{Kind: workload.OpMark},
		{Kind: workload.OpCompute, N: 2000},
		{Kind: workload.OpBarrier},
		{Kind: workload.OpMark},
	}
	for _, cfg := range []Config{TimeScalingA57(), NoTimeScaling()} {
		res := mustRun(t, cfg, ops)
		if len(res.Marks) != 2 {
			t.Fatalf("%v: marks = %v", cfg.Scaling, res.Marks)
		}
		w := int64(res.Window())
		wantMin := int64(2000 / cfg.CPU.IssueWidth)
		if w < wantMin || w > wantMin+50 {
			t.Fatalf("window = %d, want ~%d", w, wantMin)
		}
	}
}

func TestPostedWritebacksDrainAtEnd(t *testing.T) {
	// Dirty many conflicting lines so the final state has pending
	// writebacks, then end the stream without a barrier.
	var ops []workload.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpStore, Addr: uint64(i) * (4 << 20)})
	}
	res := mustRun(t, TimeScalingA57(), ops)
	if res.CPU.MemFills != 64 {
		t.Fatalf("fills = %d", res.CPU.MemFills)
	}
	// Every chip write the controller performed must be accounted in the
	// wall clock even though the CPU never waited for them.
	if res.WallTime <= 0 {
		t.Fatalf("wall time not accounted")
	}
}

func TestFenceWaitsForWritebacks(t *testing.T) {
	var ops []workload.Op
	// Dirty a line, flush it (posted writeback), then fence.
	ops = append(ops,
		workload.Op{Kind: workload.OpStore, Addr: 0x40},
		workload.Op{Kind: workload.OpFlush, Addr: 0x40},
		workload.Op{Kind: workload.OpBarrier},
		workload.Op{Kind: workload.OpCompute, N: 10},
	)
	res := mustRun(t, TimeScalingA57(), ops)
	if res.Ctrl.Writes == 0 {
		t.Fatalf("flush writeback never reached the controller")
	}
}

func TestRowCloneThroughEngine(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.DRAM = TechniqueDRAM()
	cfg.DRAM.ClonableFraction = 1
	rowBytes := uint64(8192)
	banks := uint64(16)
	ops := []workload.Op{
		{Kind: workload.OpRowClone, Src: 0, Addr: rowBytes * banks}, // row 0 -> 1, bank 0
	}
	res := mustRun(t, cfg, ops)
	if res.Chip.RowClones != 1 {
		t.Fatalf("chip saw %d clones", res.Chip.RowClones)
	}
	if res.CPU.RowClones != 1 || res.Ctrl.RowClones != 1 {
		t.Fatalf("rowclone not accounted end to end: %+v %+v", res.CPU, res.Ctrl)
	}
}

func TestRefreshAccountedConsistently(t *testing.T) {
	// A long memory-active run must issue refreshes in both engines and
	// their counts must agree (deterministic settle rule).
	ops := pointerChase(4000, 1<<20)
	ts := mustRun(t, TimeScaling1GHz(), ops)
	ref := mustRun(t, Reference1GHz(), ops)
	if ts.Ctrl.Refreshes == 0 {
		t.Fatalf("no refreshes in a %v run", ts.EmulatedTime)
	}
	if ts.Ctrl.Refreshes != ref.Ctrl.Refreshes {
		t.Fatalf("refresh counts diverge: %d vs %d", ts.Ctrl.Refreshes, ref.Ctrl.Refreshes)
	}
}

func TestMaxProcCyclesAborts(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.MaxProcCycles = 100
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(workload.NewSliceStream([]workload.Op{{Kind: workload.OpCompute, N: 1_000_000}}))
	if err == nil {
		t.Fatalf("cap did not abort the run")
	}
}

// TestNegativeMaxProcCyclesRejected checks that Validate rejects a
// negative cycle cap, naming the value, rather than treating it as no cap.
func TestNegativeMaxProcCyclesRejected(t *testing.T) {
	for _, cfg := range []Config{TimeScalingA57(), NoTimeScaling()} {
		cfg.MaxProcCycles = -5
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "-5") {
			t.Fatalf("Validate = %v, want an error naming -5", err)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Fatalf("NewSystem accepted a negative cycle cap")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.CPU.IssueWidth = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("bad CPU config must fail")
	}
	cfg = NoTimeScaling()
	cfg.CPU.Clock = TimeScalingA57().CPU.Clock // mismatched with ProcPhys
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("unscaled clock mismatch must fail")
	}
	cfg = TimeScalingA57()
	cfg.ModeledCtrlLatency = -1
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("negative latency must fail")
	}
	cfg = TimeScalingA57()
	cfg.DRAM.SubarrayRows = 100 // does not divide rows
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("bad DRAM config must fail")
	}
}

// TestNewSystemRejectsCacheGeometry pins that a cache geometry the model
// cannot hold fails NewSystem, on both hierarchies, rather than running a
// different cache: more than 16 ways, or a size that is not a whole number
// of lines.
func TestNewSystemRejectsCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		hier cache.HierConfig
	}{
		{"l1-32-way", cache.HierConfig{L1Size: 32 << 10, L1Assoc: 32, L2Size: 512 << 10, L2Assoc: 8}},
		{"l2-32-way", cache.HierConfig{L1Size: 32 << 10, L1Assoc: 4, L2Size: 512 << 10, L2Assoc: 32}},
		{"l1-100-bytes", cache.HierConfig{L1Size: 100, L1Assoc: 1, L2Size: 512 << 10, L2Assoc: 8}},
		{"l2-partial-line", cache.HierConfig{L1Size: 32 << 10, L1Assoc: 4, L2Size: 512<<10 + 32, L2Assoc: 8}},
	} {
		for _, cores := range []int{1, 4} {
			cfg := TimeScalingA57()
			cfg.Hier = tc.hier
			cfg.Cores = cores
			if _, err := NewSystem(cfg); err == nil {
				t.Errorf("%s, %d cores: NewSystem succeeded, want an error", tc.name, cores)
			}
		}
	}
}

func TestSimSpeedReported(t *testing.T) {
	res := mustRun(t, TimeScalingA57(), pointerChase(500, 1<<20))
	if res.SimSpeedMHz <= 0 || res.SimSpeedMHz > 101 {
		t.Fatalf("sim speed %.2f MHz implausible", res.SimSpeedMHz)
	}
	if res.GlobalCycles <= 0 {
		t.Fatalf("global cycles not tracked")
	}
}

func TestMPKI(t *testing.T) {
	res := mustRun(t, TimeScalingA57(), pointerChase(1000, 1<<20))
	if res.MPKI() < 500 {
		// Every dependent load misses: MPKI approaches 1000.
		t.Fatalf("MPKI = %.1f for a pure miss stream", res.MPKI())
	}
	var empty Result
	if empty.MPKI() != 0 {
		t.Fatalf("empty result MPKI must be 0")
	}
}

func TestSystemStatePersistsAcrossRuns(t *testing.T) {
	sys, err := NewSystem(TimeScalingA57())
	if err != nil {
		t.Fatal(err)
	}
	warm := []workload.Op{{Kind: workload.OpLoad, Addr: 0x1000}}
	r1, err := sys.Run(workload.NewSliceStream(warm))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CPU.MemReads != 1 {
		t.Fatalf("first touch should miss")
	}
	// The second run reuses the same caches: now it hits.
	r2, err := sys.Run(workload.NewSliceStream(warm))
	if err != nil {
		t.Fatal(err)
	}
	if r2.CPU.MemReads != 0 { // per-run CPU stats: the warm cache hits
		t.Fatalf("second run should hit the warm cache (mem reads = %d)", r2.CPU.MemReads)
	}
}

func TestClosedPagePolicyEndToEnd(t *testing.T) {
	// Sequential reads within one row: open-page turns them into row hits;
	// closed-page pays an activate per access.
	var ops []workload.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: uint64(i) * 64, Dep: true})
	}
	open := TimeScalingA57()
	open.RefreshEnabled = false
	closed := open
	closed.Policy = smc.ClosedPage
	ro := mustRun(t, open, ops)
	rc := mustRun(t, closed, ops)
	if ro.Ctrl.RowHits == 0 {
		t.Fatalf("open-page saw no row hits")
	}
	if rc.Ctrl.RowHits != 0 {
		t.Fatalf("closed-page saw %d row hits", rc.Ctrl.RowHits)
	}
	if rc.ProcCycles <= ro.ProcCycles {
		t.Fatalf("closed-page (%d) should be slower than open-page (%d) on row-friendly traffic",
			rc.ProcCycles, ro.ProcCycles)
	}
}

func TestPrefetcherEndToEnd(t *testing.T) {
	var ops []workload.Op
	for i := 0; i < 2048; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: uint64(i) * 64, Dep: true})
	}
	base := TimeScalingA57()
	pf := base
	pf.CPU.NextLinePrefetch = true
	r0 := mustRun(t, base, ops)
	r1 := mustRun(t, pf, ops)
	if r1.CPU.Prefetches == 0 {
		t.Fatalf("prefetcher never fired")
	}
	if r1.ProcCycles >= r0.ProcCycles {
		t.Fatalf("prefetcher (%d) should beat the baseline (%d) on a sequential chase",
			r1.ProcCycles, r0.ProcCycles)
	}
}
