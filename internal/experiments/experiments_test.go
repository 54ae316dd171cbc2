package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"easydram/internal/workload"
)

// The tests below run each experiment at Quick scale and assert the
// paper-level *shape* of the results: who wins, which orderings hold, and
// which regimes appear. Absolute paper numbers are asserted only loosely
// (they depend on the authors' testbed).

func TestRowCloneNoFlushShape(t *testing.T) {
	opt := Quick()
	opt.Sizes = []int{64 << 10, 512 << 10}
	res, err := RowClone(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sizes {
		noTS := res.Copy[NameNoTS][i]
		ts := res.Copy[NameTS][i]
		if noTS < 5*ts {
			t.Errorf("size %d: NoTS copy speedup %.1fx should dwarf TS %.1fx (paper: ~20x skew)",
				res.Sizes[i], noTS, ts)
		}
		if ts < 2 {
			t.Errorf("size %d: TS copy speedup %.1fx — RowClone must still win", res.Sizes[i], ts)
		}
		if res.Init[NameTS][i] >= res.Copy[NameTS][i] {
			t.Errorf("size %d: init speedup %.1fx should trail copy %.1fx",
				res.Sizes[i], res.Init[NameTS][i], res.Copy[NameTS][i])
		}
	}
	// Copy plans find clonable destinations: essentially no fallback.
	for i, fb := range res.CopyFallback {
		if fb > 0.1 {
			t.Errorf("copy fallback %.2f at size %d", fb, res.Sizes[i])
		}
	}
	if !strings.Contains(res.Table(), "No Flush") {
		t.Fatalf("table missing setting name")
	}
}

func TestRowCloneCLFLUSHShape(t *testing.T) {
	opt := Quick()
	opt.Sizes = []int{32 << 10, 1 << 20}
	res, err := RowClone(opt, true)
	if err != nil {
		t.Fatal(err)
	}
	noFlush, err := RowClone(Options{
		Sizes: opt.Sizes, Trials: opt.Trials, Seed: opt.Seed,
		MaxProcCycles: opt.MaxProcCycles, FPRate: opt.FPRate,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sizes {
		// Coherence flushes must cost: CLFLUSH speedups trail No Flush.
		if res.Copy[NameTS][i] >= noFlush.Copy[NameTS][i] {
			t.Errorf("size %d: CLFLUSH copy %.1fx should trail No Flush %.1fx",
				res.Sizes[i], res.Copy[NameTS][i], noFlush.Copy[NameTS][i])
		}
	}
	// Small-size init degrades under CLFLUSH (paper: <=256 KiB with TS).
	if res.Init[NameTS][0] >= 1.5 {
		t.Errorf("small CLFLUSH init speedup %.2fx: expected heavy degradation", res.Init[NameTS][0])
	}
	// Benefits grow with size (paper observation four).
	if res.Copy[NameTS][1] <= res.Copy[NameTS][0] {
		t.Errorf("CLFLUSH copy speedup should grow with size: %.2f -> %.2f",
			res.Copy[NameTS][0], res.Copy[NameTS][1])
	}
}

func TestFigure8Shape(t *testing.T) {
	opt := Quick()
	opt.LatSizesKiB = []int{4, 64, 4096}
	res, err := Figure8(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Curves[NameTS]
	noTS := res.Curves[NameNoTS]
	cortex := res.Curves[NameCortex]

	// L1 region: all systems identical.
	if ts[0] != cortex[0] {
		t.Errorf("L1 latencies differ: ts=%.1f cortex=%.1f", ts[0], cortex[0])
	}
	// Memory region: NoTS reports far fewer cycles than the modeled real
	// system (the paper's headline observation for Figure 8).
	if noTS[2] >= cortex[2]/2 {
		t.Errorf("NoTS memory plateau %.1f should be well below the real system's %.1f", noTS[2], cortex[2])
	}
	// Time scaling tracks the real system closely.
	diff := (ts[2] - cortex[2]) / cortex[2]
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05 {
		t.Errorf("TS plateau %.1f deviates %.1f%% from the modeled system %.1f", ts[2], 100*diff, cortex[2])
	}
	// Plateaus are ordered: L1 < L2 < memory.
	if !(ts[0] < ts[1] && ts[1] < ts[2]) {
		t.Errorf("latency plateaus not ordered: %v", ts)
	}
}

func TestValidationUnderOnePercent(t *testing.T) {
	opt := Quick()
	res, err := Validation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 29 { // 28 PolyBench + lmbench
		t.Fatalf("validated %d workloads, want 29", len(res.Names))
	}
	// On a breach, print the whole per-kernel table: the bound is an
	// aggregate, but the diagnosis starts from which kernel diverged.
	if res.MaxPct > 1.0 {
		t.Fatalf("max validation error %.3f%% exceeds the paper's 1%% bound\n%s", res.MaxPct, res.Table())
	}
	if res.AvgPct > 0.1 {
		t.Fatalf("avg validation error %.3f%% exceeds the paper's 0.1%% bound\n%s", res.AvgPct, res.Table())
	}
}

func TestFigure12Shape(t *testing.T) {
	opt := Quick()
	opt.HeatRows = 384
	res, err := Figure12(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Banks != 2 || len(res.MinTRCDns) != 2 {
		t.Fatalf("banks = %d", res.Banks)
	}
	// All rows operate below nominal (paper observation one).
	for b := range res.MinTRCDns {
		for r, v := range res.MinTRCDns[b] {
			if v >= res.NominalNs {
				t.Fatalf("bank %d row %d at nominal %.1f ns — all rows should beat nominal", b, r, v)
			}
		}
	}
	if res.StrongFraction <= 0.5 || res.StrongFraction >= 1 {
		t.Fatalf("strong fraction %.2f implausible", res.StrongFraction)
	}
	if !strings.Contains(res.Heatmap(), "strong rows") {
		t.Fatalf("heatmap missing summary")
	}
}

func TestFigure13Shape(t *testing.T) {
	opt := Quick()
	opt.KernelSize = workload.Small
	res, err := Figure13(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 11 {
		t.Fatalf("evaluated %d workloads, want 11", len(res.Names))
	}
	for i, n := range res.Names {
		for _, cfg := range []string{NameTS, NameRamulator} {
			s := res.Speedup[cfg][i]
			if s < 0.97 || s > 1.25 {
				t.Errorf("%s/%s speedup %.3f outside the plausible band", cfg, n, s)
			}
		}
	}
	// durbin is cache-resident: essentially no benefit.
	last := len(res.Names) - 1
	if res.Names[last] != "durbin" {
		t.Fatalf("last workload = %s", res.Names[last])
	}
	if res.Speedup[NameTS][last] > 1.01 {
		t.Errorf("durbin speedup %.4f should be negligible", res.Speedup[NameTS][last])
	}
	if res.MPKI[last] > 1 {
		t.Errorf("durbin MPKI %.2f should be tiny", res.MPKI[last])
	}
}

func TestFigure14Shape(t *testing.T) {
	opt := Quick()
	opt.KernelSize = workload.Small
	res, err := Figure13(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Names {
		e, m := res.SimSpeedMHz[NameTS][i], res.SimSpeedMHz[NameRamulator][i]
		if e <= m {
			t.Errorf("%s: EasyDRAM %.2f MHz should beat Ramulator %.2f MHz", n, e, m)
		}
	}
	if !strings.Contains(res.SpeedTable(), "geomean") {
		t.Fatalf("speed table missing summary")
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Platforms) != 4 {
		t.Fatalf("platforms = %d", len(res.Platforms))
	}
	real, rtl, smc, ts := res.LatencyNs[0], res.LatencyNs[1], res.LatencyNs[2], res.LatencyNs[3]
	// The raw software MC is an order of magnitude slower than an RTL MC.
	if smc < 5*rtl {
		t.Errorf("software MC %.0f ns should dwarf RTL MC %.0f ns", smc, rtl)
	}
	// Time scaling restores the real system's latency.
	diff := (ts - real) / real
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Errorf("TS latency %.1f ns deviates from real %.1f ns", ts, real)
	}
	// The DRAM-array component is identical everywhere (the paper's "Main
	// Memory bar stays the same length").
	for i := 1; i < 4; i++ {
		if res.MainMemoryNs[i] != res.MainMemoryNs[0] {
			t.Errorf("DRAM component differs across platforms")
		}
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredCyclesPerSec < 1e6 || res.MeasuredCyclesPerSec > 100e6 {
		t.Fatalf("measured speed %.1fM cycles/s outside Table 1's EasyDRAM class (~10M)",
			res.MeasuredCyclesPerSec/1e6)
	}
	out := res.Render()
	if !strings.Contains(out, "EasyDRAM (this work)") || !strings.Contains(out, "measured") {
		t.Fatalf("table missing EasyDRAM row:\n%s", out)
	}
}

// TestEnergyShape pins RowClone's energy headline: in-DRAM copy moves no
// data over the bus, so its DRAM energy is far below the CPU baseline's.
func TestEnergyShape(t *testing.T) {
	opt := Quick()
	opt.Sizes = []int{256 << 10}
	res, err := Energy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio[0] < 3 {
		t.Fatalf("RowClone energy advantage %.1fx implausibly low", res.Ratio[0])
	}
	if !strings.Contains(res.Table(), "advantage") {
		t.Fatalf("table malformed")
	}
}

// TestAblations asserts the direction of each design-axis sweep.
func TestAblations(t *testing.T) {
	opt := Quick()
	t.Run("scheduler", func(t *testing.T) {
		r, err := AblationScheduler(opt)
		if err != nil {
			t.Fatal(err)
		}
		// FCFS (index 1) must trail FR-FCFS (index 0) on the stress mix.
		if r.Relative[1] <= 1.0 {
			t.Errorf("FCFS %.3fx should be slower than FR-FCFS", r.Relative[1])
		}
	})
	t.Run("prefetcher", func(t *testing.T) {
		r, err := AblationPrefetcher(opt)
		if err != nil {
			t.Fatal(err)
		}
		// The next-line prefetcher must speed up streaming.
		if r.Relative[1] >= 1.0 {
			t.Errorf("prefetcher %.3fx should accelerate a stream", r.Relative[1])
		}
	})
	t.Run("pagepolicy", func(t *testing.T) {
		r, err := AblationPagePolicy(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Labels) != 2 || r.Cycles[0] <= 0 || r.Cycles[1] <= 0 {
			t.Fatalf("sweep malformed: %+v", r)
		}
	})
	t.Run("ddr5", func(t *testing.T) {
		r, err := AblationDDR5(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Labels) != 3 {
			t.Fatalf("sweep malformed: %+v", r)
		}
		if !strings.Contains(r.Table(), "ddr5-4800") {
			t.Fatalf("table missing DDR5 row")
		}
	})
}

// TestParallelHarnessDeterministic pins the concurrency model's contract:
// the worker pool must produce byte-identical rendered tables at any worker
// count, because every cell runs on its own system and writes only its own
// index-addressed slot.
func TestParallelHarnessDeterministic(t *testing.T) {
	opt := Quick()
	opt.KernelSize = workload.Tiny
	opt.LatAccesses = 500
	opt.Sizes = []int{32 << 10, 256 << 10}

	serial, parallel := opt, opt
	serial.Workers = 1
	parallel.Workers = 8

	t.Run("validation", func(t *testing.T) {
		a, err := Validation(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Validation(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() {
			t.Fatalf("validation tables diverge between serial and parallel runs:\n%s\n---\n%s", a.Table(), b.Table())
		}
	})
	t.Run("figure8", func(t *testing.T) {
		a, err := Figure8(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Figure8(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() {
			t.Fatalf("figure8 tables diverge between serial and parallel runs")
		}
	})
	t.Run("rowclone", func(t *testing.T) {
		a, err := RowClone(serial, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RowClone(parallel, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() {
			t.Fatalf("rowclone tables diverge between serial and parallel runs")
		}
	})
	t.Run("figure13", func(t *testing.T) {
		a, err := Figure13(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Figure13(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() || a.SpeedTable() != b.SpeedTable() {
			t.Fatalf("figure13 tables diverge between serial and parallel runs")
		}
	})
	t.Run("figure12", func(t *testing.T) {
		a, err := Figure12(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Figure12(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if a.Heatmap() != b.Heatmap() {
			t.Fatalf("figure12 heatmaps diverge between serial and sharded runs")
		}
	})
}

// TestEffectiveWorkersDefault pins the Options.Workers zero-value contract:
// an unset pool size resolves to GOMAXPROCS, and explicit settings pass
// through untouched.
func TestEffectiveWorkersDefault(t *testing.T) {
	var opt Options
	if got, want := opt.EffectiveWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("zero Workers resolved to %d, want GOMAXPROCS %d", got, want)
	}
	opt.Workers = 3
	if got := opt.EffectiveWorkers(); got != 3 {
		t.Fatalf("explicit Workers=3 resolved to %d", got)
	}
	opt.Workers = -1
	if got, want := opt.EffectiveWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("negative Workers resolved to %d, want GOMAXPROCS %d", got, want)
	}
}

// TestWorkerCountByteIdentical asserts the satellite determinism contract
// directly: a 1-worker and a 4-worker run of the same quick-scale
// experiment produce byte-identical rendered output and identical headline
// numbers, as does a defaulted (Workers=0) run.
func TestWorkerCountByteIdentical(t *testing.T) {
	opt := Quick()
	opt.KernelSize = workload.Tiny
	opt.LatAccesses = 500
	opt.Sizes = []int{32 << 10, 256 << 10}

	one, four, def := opt, opt, opt
	one.Workers = 1
	four.Workers = 4
	def.Workers = 0

	render := func(o Options) (string, float64) {
		t.Helper()
		v, err := Validation(o)
		if err != nil {
			t.Fatal(err)
		}
		return v.Table(), v.AvgPct
	}
	tabOne, avgOne := render(one)
	tabFour, avgFour := render(four)
	tabDef, avgDef := render(def)
	if tabOne != tabFour || avgOne != avgFour {
		t.Fatalf("1-worker vs 4-worker results diverge:\n%s\n---\n%s", tabOne, tabFour)
	}
	if tabOne != tabDef || avgOne != avgDef {
		t.Fatalf("defaulted-worker run diverges from the serial run:\n%s\n---\n%s", tabOne, tabDef)
	}
}

// TestForEachErrorContract pins the pool's error behaviour: failures
// propagate, the lowest-index error among the cells that ran wins, and a
// serial pool covers every index up to the failure.
func TestForEachErrorContract(t *testing.T) {
	if err := forEach(4, 0, func(int) error { return nil }); err != nil {
		t.Fatalf("empty forEach: %v", err)
	}
	var covered [64]bool
	if err := forEach(4, 64, func(i int) error { covered[i] = true; return nil }); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("index %d never ran", i)
		}
	}
	// Parallel: some error must surface when cells fail.
	err := forEach(4, 64, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatalf("error not propagated")
	}
	// Serial: deterministically the first failing index.
	err = forEach(1, 64, func(i int) error {
		if i >= 5 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 5 failed" {
		t.Fatalf("serial pool: want cell 5's error, got %v", err)
	}
}

// TestForEachRunsWorkersConcurrently pins that the pool really runs
// `workers` calls at once, on any host (one CPU included): every call
// blocks at a barrier until `workers` calls are in flight together, so a
// pool that serialized would time out instead of passing. It also pins the
// bound: no more than `workers` calls are ever in flight.
func TestForEachRunsWorkersConcurrently(t *testing.T) {
	const rounds = 3
	for _, workers := range []int{0, 2, 4, 8} {
		want := workers
		if want == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		var (
			mu       sync.Mutex
			inflight int
			peak     int
			arrived  int
			release  = make(chan struct{})
		)
		err := forEach(workers, want*rounds, func(i int) error {
			mu.Lock()
			inflight++
			peak = max(peak, inflight)
			arrived++
			ch := release
			if arrived == want {
				// The round is full: let its calls go and arm the next one.
				arrived = 0
				close(release)
				release = make(chan struct{})
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				inflight--
				mu.Unlock()
			}()
			select {
			case <-ch:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("cell %d: waited 10s for %d calls in flight at once", i, want)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if peak > want {
			t.Fatalf("workers=%d: %d calls in flight at once, want at most %d", workers, peak, want)
		}
	}
}

func TestDisturbSweep(t *testing.T) {
	opt := Quick()
	opt.Workers = 2
	r, err := DisturbSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Table())
	if r.Escaped("none") == 0 {
		t.Fatal("unmitigated hammer escaped no flips at the top intensity")
	}
	for i := range r.Intensities {
		if trr := r.EscapedFlips[2][i]; trr != 0 {
			t.Fatalf("TRR leaked %d flips at intensity %d (threshold contract: < 2x%d aggressor ACTs between victim refreshes)",
				trr, r.Intensities[i], trrThreshold)
		}
	}
	if r.Escaped("para") > r.Escaped("none") {
		t.Fatalf("PARA escaped more flips (%d) than no mitigation (%d)", r.Escaped("para"), r.Escaped("none"))
	}
	if v := r.Overhead("trr"); v <= 0 {
		t.Fatalf("TRR reported non-positive overhead %.2f%% despite inserting refreshes", v)
	}
	// Mitigation must actually have fired where it claims to.
	if r.MitigationRefreshes[2][len(r.Intensities)-1] == 0 {
		t.Fatal("TRR row reports zero victim refreshes")
	}
}

// TestDisturbSweepWorkerIndependence pins the determinism contract the
// benchall snapshot relies on: the rendered table is byte-identical whether
// cells run serially or fanned across four workers.
func TestDisturbSweepWorkerIndependence(t *testing.T) {
	opt := Quick()
	opt.DisturbIntensities = []int{24, 48}
	run := func(workers int) string {
		o := opt
		o.Workers = workers
		r, err := DisturbSweep(o)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table()
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("sweep diverged across worker counts:\n%s\nvs\n%s", a, b)
	}
}
