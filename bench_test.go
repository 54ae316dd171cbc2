package easydram

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench . -benchtime 1x`). Each benchmark
// prints the regenerated table via b.Log and reports the headline numbers
// as benchmark metrics, so `go test -bench` output alone records the
// paper-vs-measured comparison. Ablation benchmarks beyond the paper's
// evaluation sit at the bottom.

import (
	"slices"
	"testing"
	"time"

	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/experiments"
	"easydram/internal/stats"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// benchOptions is the scale used by the benchmark harness: full sweep
// points, evaluation-class kernel sizes.
func benchOptions() experiments.Options {
	opt := experiments.Default()
	return opt
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		b.ReportMetric(res.MeasuredCyclesPerSec/1e6, "Mcycles/s")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		// Paper: the software MC inflates request time by an order of
		// magnitude; time scaling restores the real system's behaviour.
		b.ReportMetric(res.LatencyRatio(experiments.PlatformSMC, experiments.PlatformReal), "smc/real-latency-ratio")
	}
}

// BenchmarkValidation regenerates the §6 time-scaling validation.
// Paper: <0.1% average, <1% maximum execution-time error over 29 workloads.
func BenchmarkValidation(b *testing.B) {
	opt := benchOptions()
	opt.KernelSize = workload.Small // two full system runs per kernel
	for i := 0; i < b.N; i++ {
		res, err := experiments.Validation(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		b.ReportMetric(res.AvgPct, "avg-err-%")
		b.ReportMetric(res.MaxPct, "max-err-%")
	}
}

// BenchmarkFigure8 regenerates the lmbench latency profile.
// Paper: EasyDRAM-TS tracks the Cortex-A57 curve; EasyDRAM-NoTS reports a
// far lower main-memory plateau.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		b.ReportMetric(res.PlateauCycles(experiments.NameTS), "ts-mem-cycles")
		b.ReportMetric(res.PlateauCycles(experiments.NameNoTS), "nots-mem-cycles")
		b.ReportMetric(res.PlateauCycles(experiments.NameCortex), "a57-mem-cycles")
	}
}

// BenchmarkFigure10 regenerates RowClone - No Flush.
// Paper averages: Copy 306.7x (NoTS) / 15.0x (TS) / 27.2x (Ramulator);
// Init 36.7x / 1.8x / 17.3x.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RowClone(benchOptions(), false)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		b.ReportMetric(stats.Mean(res.Copy[experiments.NameNoTS]), "copy-nots-x")
		b.ReportMetric(stats.Mean(res.Copy[experiments.NameTS]), "copy-ts-x")
		b.ReportMetric(stats.Mean(res.Copy[experiments.NameRamulator]), "copy-ram-x")
		b.ReportMetric(stats.Mean(res.Init[experiments.NameNoTS]), "init-nots-x")
		b.ReportMetric(stats.Mean(res.Init[experiments.NameTS]), "init-ts-x")
		b.ReportMetric(stats.Mean(res.Init[experiments.NameRamulator]), "init-ram-x")
	}
}

// BenchmarkFigure11 regenerates RowClone - CLFLUSH.
// Paper: Copy 3.1x (NoTS) / 4.04x (TS) average; Init degrades at small
// sizes.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RowClone(benchOptions(), true)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		b.ReportMetric(stats.Mean(res.Copy[experiments.NameTS]), "copy-ts-x")
		b.ReportMetric(stats.Mean(res.Copy[experiments.NameNoTS]), "copy-nots-x")
		b.ReportMetric(res.Init[experiments.NameTS][0], "init-ts-smallest-x")
	}
}

// BenchmarkFigure12 regenerates the tRCD characterization heatmap.
// Paper: 84.5% of rows reliable at <=9.0 ns, weak rows spatially clustered.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Heatmap())
		b.ReportMetric(100*res.StrongFraction, "strong-%")
	}
}

// BenchmarkFigure13 regenerates the tRCD-reduction speedups.
// Paper: +2.75% average / +9.76% max (EasyDRAM), +2.58% / +7.04%
// (Ramulator 2.0).
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		b.ReportMetric(res.AvgSpeedupPct(experiments.NameTS), "easydram-avg-%")
		b.ReportMetric(res.MaxSpeedupPct(experiments.NameTS), "easydram-max-%")
		b.ReportMetric(res.AvgSpeedupPct(experiments.NameRamulator), "ramulator-avg-%")
	}
}

// BenchmarkFigure14 regenerates the simulation-speed comparison.
// Paper: EasyDRAM 5.9x (avg) / 20.3x (max) faster than Ramulator 2.0.
func BenchmarkFigure14(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.SpeedTable())
		e := stats.Geomean(res.SimSpeedMHz[experiments.NameTS])
		m := stats.Geomean(res.SimSpeedMHz[experiments.NameRamulator])
		b.ReportMetric(e, "easydram-MHz")
		b.ReportMetric(m, "ramulator-MHz")
		if m > 0 {
			b.ReportMetric(e/m, "speed-ratio")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's evaluation (DESIGN.md §4.5).

// BenchmarkAblationScheduler compares FR-FCFS against FCFS on a
// memory-intensive kernel under time scaling.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cycles [2]float64
		for j, sched := range []string{"fr-fcfs", "fcfs"} {
			sys, err := NewSystem(TimeScaled(), WithScheduler(sched))
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Run(workload.PBGemver(360))
			if err != nil {
				b.Fatal(err)
			}
			cycles[j] = float64(res.ProcCycles)
		}
		b.ReportMetric(cycles[1]/cycles[0], "fcfs/frfcfs-time")
	}
}

// BenchmarkAblationMLP sweeps the out-of-order core's memory-level
// parallelism, showing why streaming baselines accelerate with MLP (the
// mechanism behind the Init workload's modest RowClone gains).
func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := 0.0
		for _, mlp := range []int{1, 2, 4, 8} {
			cfg := core.TimeScalingA57()
			cfg.CPU.MLP = mlp
			sys, err := core.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Run(workload.CPUInit(0, 1<<20).Stream())
			if err != nil {
				b.Fatal(err)
			}
			if mlp == 1 {
				base = float64(res.ProcCycles)
			} else if mlp == 8 {
				b.ReportMetric(base/float64(res.ProcCycles), "mlp8/mlp1-speedup")
			}
		}
	}
}

// BenchmarkAblationCtrlLatency sweeps the modeled hardware-controller
// latency, quantifying how sensitive time-scaled results are to this
// calibration constant.
func BenchmarkAblationCtrlLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var first, last float64
		for _, ns := range []int64{20, 40, 80} {
			cfg := core.TimeScalingA57()
			cfg.ModeledCtrlLatency = clockPS(ns * 1000)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Run(workload.LatMemRd(8<<20, 4000).Stream())
			if err != nil {
				b.Fatal(err)
			}
			perMiss := float64(res.Window()) / 4000
			if ns == 20 {
				first = perMiss
			}
			last = perMiss
		}
		b.ReportMetric(last-first, "miss-cycles-per-60ns-ctrl")
	}
}

// BenchmarkAblationBloomFP sweeps the weak-row Bloom filter's target
// false-positive rate: a sloppier filter costs strong rows their reduced
// tRCD but never corrupts data.
func BenchmarkAblationBloomFP(b *testing.B) {
	k := workload.PBGemver(260)
	extent := workload.Extent(k)
	for i := 0; i < b.N; i++ {
		for _, fp := range []float64{0.001, 0.05, 0.3} {
			prof, err := NewSystem(TimeScaled(), WithDataTracking())
			if err != nil {
				b.Fatal(err)
			}
			provider, _, err := prof.ProfileWeakRows(0, extent, ReducedTRCD, fp)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := NewSystem(TimeScaled(), WithReducedTRCD(provider))
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Run(k)
			if err != nil {
				b.Fatal(err)
			}
			if res.Chip.CorruptedReads != 0 {
				b.Fatalf("fp=%v corrupted %d reads", fp, res.Chip.CorruptedReads)
			}
			if fp == 0.3 {
				b.ReportMetric(float64(res.ProcCycles), "cycles-at-fp0.3")
			}
		}
	}
}

// clockPS converts raw picoseconds (avoids importing clock in this file's
// public-facing API surface).
func clockPS(v int64) PS { return PS(v) }

// BenchmarkWeakRowCharacterization measures the §8.1 weak-row profiling
// pass both ways: the bank-stripe fast path (techniques.ProfileWeakRows)
// against a line-by-line walk of the same span through System.ProfileLine
// (one host round-trip per cache line, stopping at a row's first failing
// line). It reports the host round-trip reduction — the dominant cost of
// Figure 13's characterization stage — plus the fast path's row
// throughput, and fails if the weak-row sets ever diverge.
func BenchmarkWeakRowCharacterization(b *testing.B) {
	cfg := core.TimeScalingA57()
	cfg.DRAM = core.TechniqueDRAM()
	const rows = 512
	for i := 0; i < b.N; i++ {
		rowSys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rowBytes := uint64(rowSys.Mapper().RowBytes())
		span := rows * rowBytes
		t0 := time.Now()
		weakRow, _, err := techniques.ProfileWeakRows(rowSys, 0, span, techniques.ReducedTRCD)
		if err != nil {
			b.Fatal(err)
		}
		rowSecs := time.Since(t0).Seconds()

		lineSys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		weakLine, err := weakRowsLineByLine(lineSys, span, rowBytes)
		if err != nil {
			b.Fatal(err)
		}
		if len(weakRow) != len(weakLine) {
			b.Fatalf("paths diverge: %d vs %d weak rows", len(weakRow), len(weakLine))
		}
		for j := range weakRow {
			if weakRow[j] != weakLine[j] {
				b.Fatalf("weak sets diverge at %d", j)
			}
		}
		b.ReportMetric(float64(lineSys.HostRequests())/float64(rowSys.HostRequests()), "roundtrip-reduction-x")
		b.ReportMetric(float64(rows)/rowSecs, "rows/s")
	}
}

// weakRowsLineByLine profiles [0, span) of a single-channel system one
// line at a time at the reduced tRCD. Each rowBytes-aligned block is one
// DRAM row there; a row is weak at its first failing line, and it is keyed
// by the physical address of its column 0, as ProfileWeakRows keys it.
// The keys come back ascending.
func weakRowsLineByLine(sys *core.System, span, rowBytes uint64) ([]uint64, error) {
	m := sys.Mapper()
	var weak []uint64
	for base := uint64(0); base < span; base += rowBytes {
		for pa := base; pa < base+rowBytes; pa += dram.LineBytes {
			ok, err := sys.ProfileLine(pa, techniques.ReducedTRCD)
			if err != nil {
				return nil, err
			}
			if !ok {
				a := m.Map(base)
				weak = append(weak, m.Unmap(dram.Addr{Chan: a.Chan, Bank: a.Bank, Row: a.Row}))
				break
			}
		}
	}
	slices.Sort(weak)
	return weak, nil
}

// BenchmarkEnergyExtension measures RowClone's DRAM-energy advantage for
// bulk copy (the RowClone paper's second headline; extension experiment).
func BenchmarkEnergyExtension(b *testing.B) {
	opt := benchOptions()
	opt.Sizes = []int{1 << 20, 16 << 20}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Energy(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Table())
		b.ReportMetric(res.Ratio[len(res.Ratio)-1], "energy-advantage-x")
	}
}

// BenchmarkAblationPagePolicy sweeps open-page vs closed-page management.
func BenchmarkAblationPagePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPagePolicy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + r.Table())
		b.ReportMetric(r.Relative[1], "closed/open-time")
	}
}

// BenchmarkAblationPrefetcher measures the next-line prefetcher on
// streaming traffic.
func BenchmarkAblationPrefetcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPrefetcher(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + r.Table())
		b.ReportMetric(r.Relative[1], "prefetch/base-time")
	}
}

// BenchmarkAblationDDR5 swaps DRAM generations.
func BenchmarkAblationDDR5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDDR5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + r.Table())
		b.ReportMetric(r.Relative[len(r.Relative)-1], "ddr5/ddr4-time")
	}
}
