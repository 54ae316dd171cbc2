package experiments

import (
	"fmt"
	"strings"

	"easydram/internal/core"
	"easydram/internal/difffuzz"
	"easydram/internal/stats"
	"easydram/internal/techniques"
)

// WallClockMetric is the one catalog metric measured in host time (the
// snapshot experiment's warm-start speedup): it differs from run to run,
// so it stays out of every Output.Text and out of golden files.
const WallClockMetric = "snapshot/warm_start_speedup_x"

// Output is one experiment's result as every front end consumes it: the
// rendered report text (tables and summary lines, machine-independent) and
// the headline numbers keyed "<experiment>/<metric>". Every metric but
// WallClockMetric is an emulated result.
type Output struct {
	Text    string
	Metrics map[string]float64
}

// Experiment is one entry of the paper's evaluation: a short name (the
// cmd/easydram argument), a report title, and the runner.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) (Output, error)
}

// Catalog lists the paper's tables and figures and the extensions beyond
// them, in report order. cmd/easydram, cmd/benchall and the benchmark
// harness all run the evaluation from this one list.
func Catalog() []Experiment {
	return []Experiment{
		{"table1", "Table 1 — platform comparison", runTable1},
		{"fig2", "Figure 2 — request time breakdown", runFigure2},
		{"validation", "§6 — time-scaling validation (paper: <0.1% avg, <1% max)", runValidation},
		{"fig8", "Figure 8 — lmbench latency profile", runFigure8},
		{"fig10", "Figure 10 — RowClone No Flush (paper: copy 306.7x/15.0x/27.2x, init 36.7x/1.8x/17.3x)", runFigure10},
		{"fig11", "Figure 11 — RowClone CLFLUSH (paper: copy 3.1x/4.04x avg)", runFigure11},
		{"fig12", "Figure 12 — minimum reliable tRCD heatmap (paper: 84.5% strong)", runFigure12},
		{"fig13", "Figures 13 & 14 — tRCD reduction (paper: +2.75% avg EasyDRAM, +2.58% Ramulator) and simulation speed (paper: 5.9x avg)", runFigure13},
		{"energy", "Extension — RowClone DRAM energy (RowClone paper: ~74x for FPM copy)", runEnergy},
		{"ablations", "Extension — design-axis ablations", runAblations},
		{"disturb", "Extension — RowHammer disturb sweep (escaped flips and mitigation overhead)", runDisturb},
		{"snapshot", "Extension — durable characterization store and restore identity", runSnapshot},
		{"fairness", "Extension — multi-core fairness sweep (BLISS vs FR-FCFS under multiprogram mixes)", runFairness},
		{"characterization", "Extension — §8.1 weak-row characterization host round-trips (bank-stripe profiling)", runCharacterization},
		{"difffuzz", "Extension — differential fuzz sweep (seeded config space vs direct simulation)", runDifffuzz},
	}
}

func runTable1(opt Options) (Output, error) {
	r, err := Table1(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Render(), map[string]float64{
		"table1/mcycles_per_sec": r.MeasuredCyclesPerSec / 1e6,
	}}, nil
}

func runFigure2(opt Options) (Output, error) {
	r, err := Figure2(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"figure2/smc_vs_real_latency_ratio": r.LatencyRatio(PlatformSMC, PlatformReal),
	}}, nil
}

func runValidation(opt Options) (Output, error) {
	r, err := Validation(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"validation/avg_err_pct": r.AvgPct,
		"validation/max_err_pct": r.MaxPct,
	}}, nil
}

func runFigure8(opt Options) (Output, error) {
	r, err := Figure8(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"figure8/ts_mem_cycles":   r.PlateauCycles(NameTS),
		"figure8/nots_mem_cycles": r.PlateauCycles(NameNoTS),
		"figure8/a57_mem_cycles":  r.PlateauCycles(NameCortex),
	}}, nil
}

func runFigure10(opt Options) (Output, error) {
	r, err := RowClone(opt, false)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"figure10/copy_ts_avg_x":   stats.Mean(r.Copy[NameTS]),
		"figure10/copy_nots_avg_x": stats.Mean(r.Copy[NameNoTS]),
		"figure10/init_ts_avg_x":   stats.Mean(r.Init[NameTS]),
	}}, nil
}

func runFigure11(opt Options) (Output, error) {
	r, err := RowClone(opt, true)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"figure11/copy_ts_avg_x": stats.Mean(r.Copy[NameTS]),
	}}, nil
}

func runFigure12(opt Options) (Output, error) {
	r, err := Figure12(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Heatmap(), map[string]float64{
		"figure12/strong_pct": 100 * r.StrongFraction,
	}}, nil
}

// runFigure13 renders Figures 13 and 14 from one set of runs: both tables
// plus the headline summary lines.
func runFigure13(opt Options) (Output, error) {
	r, err := Figure13(opt)
	if err != nil {
		return Output{}, err
	}
	text := r.Table() + "\n" + r.SpeedTable() + "\n" +
		fmt.Sprintf("EasyDRAM avg improvement: %.2f%% (max %.2f%%)\n",
			r.AvgSpeedupPct(NameTS), r.MaxSpeedupPct(NameTS)) +
		fmt.Sprintf("Ramulator avg improvement: %.2f%% (max %.2f%%)\n",
			r.AvgSpeedupPct(NameRamulator), r.MaxSpeedupPct(NameRamulator)) +
		fmt.Sprintf("EasyDRAM sim speed geomean %.2f MHz", stats.Geomean(r.SimSpeedMHz[NameTS]))
	m := map[string]float64{
		"figure13/easydram_avg_pct":      r.AvgSpeedupPct(NameTS),
		"figure13/easydram_max_pct":      r.MaxSpeedupPct(NameTS),
		"figure13/ramulator_avg_pct":     r.AvgSpeedupPct(NameRamulator),
		"figure14/easydram_geomean_mhz":  stats.Geomean(r.SimSpeedMHz[NameTS]),
		"figure14/ramulator_geomean_mhz": stats.Geomean(r.SimSpeedMHz[NameRamulator]),
	}
	if ram := m["figure14/ramulator_geomean_mhz"]; ram > 0 {
		m["figure14/speed_ratio"] = m["figure14/easydram_geomean_mhz"] / ram
	}
	return Output{text, m}, nil
}

func runEnergy(opt Options) (Output, error) {
	r, err := Energy(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"energy/advantage_x": r.Ratio[len(r.Ratio)-1],
	}}, nil
}

func runAblations(opt Options) (Output, error) {
	rs, err := Ablations(opt)
	if err != nil {
		return Output{}, err
	}
	tables := make([]string, len(rs))
	for i, r := range rs {
		tables[i] = r.Table()
	}
	return Output{Text: strings.Join(tables, "\n")}, nil
}

func runDisturb(opt Options) (Output, error) {
	r, err := DisturbSweep(opt)
	if err != nil {
		return Output{}, err
	}
	return Output{r.Table(), map[string]float64{
		"faults/none_escaped_flips": float64(r.Escaped("none")),
		"faults/para_escaped_flips": float64(r.Escaped("para")),
		"faults/trr_escaped_flips":  float64(r.Escaped("trr")),
		"faults/trr_overhead_pct":   r.Overhead("trr"),
	}}, nil
}

func runSnapshot(opt Options) (Output, error) {
	r, err := WarmStart(opt)
	if err != nil {
		return Output{}, err
	}
	// The speedup is host wall clock: a metric only, never report text
	// (whose bytes stay machine-identical).
	return Output{r.Table(), map[string]float64{
		WallClockMetric:                r.SpeedupX(),
		"snapshot/fallbacks":           float64(r.Fallbacks),
		"snapshot/identity_mismatches": float64(r.IdentityMismatches),
	}}, nil
}

func runFairness(opt Options) (Output, error) {
	r, err := FairnessSweep(opt)
	if err != nil {
		return Output{}, err
	}
	// The headline cells: the mixed workload at the grid's top core count,
	// per scheduler. BLISS's max slowdown (and the FR-FCFS baseline it is
	// judged against) plus the delivered throughput.
	counts := FairnessCoreCounts(opt)
	top := counts[len(counts)-1]
	bl := r.Cell("bliss", "mixed", top)
	base := r.Cell("fr-fcfs", "mixed", top)
	if bl == nil || base == nil {
		return Output{}, fmt.Errorf("fairness: missing mixed cells at %d cores", top)
	}
	return Output{r.Table(), map[string]float64{
		"fairness/max_slowdown":        bl.MaxSlowdown,
		"fairness/weighted_speedup":    bl.WeightedSpeedup,
		"fairness/frfcfs_max_slowdown": base.MaxSlowdown,
	}}, nil
}

// runCharacterization measures §8.1's host-driven profiling loop: host
// round-trips per row of a fixed 256-row weak-row scan, which batches
// consecutive rows into one stripe request. The probe is fixed-size and
// seed-independent, so its metric is comparable across every run.
func runCharacterization(Options) (Output, error) {
	const rows = 256
	cfg := core.TimeScalingA57()
	cfg.DRAM = core.TechniqueDRAM()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Output{}, err
	}
	span := uint64(rows) * uint64(sys.Mapper().RowBytes())
	weak, _, err := techniques.ProfileWeakRows(sys, 0, span, techniques.ReducedTRCD)
	if err != nil {
		return Output{}, err
	}
	perRow := float64(sys.HostRequests()) / rows
	text := fmt.Sprintf("%d rows profiled at tRCD %.1f ns in %d host round-trips (%.3f per row), %d weak",
		rows, float64(techniques.ReducedTRCD)/1000, sys.HostRequests(), perRow, len(weak))
	return Output{text, map[string]float64{
		"characterization/roundtrips_per_row": perRow,
	}}, nil
}

func runDifffuzz(opt Options) (Output, error) {
	res := difffuzz.Sweep(difffuzz.SweepOptions{Seed: difffuzz.DefaultSeed, Workers: opt.Workers})
	if len(res.Failures) > 0 {
		r := res.Reports[res.Failures[0]]
		return Output{}, fmt.Errorf("difffuzz: %d of %d cases failed (first: seed %#x %s: %s)",
			len(res.Failures), len(res.Reports), r.Case.Seed, r.Failure.Check, r.Failure.Detail)
	}
	return Output{res.Summary(), map[string]float64{
		"difffuzz/configs_checked": float64(len(res.Reports)),
		"difffuzz/max_err_pct":     res.MaxErrPct,
		"difffuzz/avg_err_pct":     res.AvgErrPct,
	}}, nil
}
