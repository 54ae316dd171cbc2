// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6-§8). Each runner assembles the systems it needs,
// executes the workloads, and returns both raw numbers and a rendered
// text table. Catalog lists the runners in report order with their
// headline metrics, so the cmd/ tools and the benchmark harness share one
// implementation.
//
// # Concurrency model
//
// Each experiment cell — one workload on one configuration — builds an
// independent core.System, so the sweeping runners (Validation, Figure8,
// Figure13, RowClone, Ablations) fan their cells across a bounded worker
// pool (Options.Workers goroutines; 0 selects GOMAXPROCS; see forEach in
// parallel.go). Cells write results into index-addressed slots, so the
// assembled tables are byte-identical to a serial run no matter how the
// pool schedules. Figure12's weak-row characterization shards its
// (bank, row) grid the same way, one independent profiling system per
// shard: per-row outcomes are a pure function of the seeded variation
// model, so the heatmap is identical at any worker count. Single-run
// experiments (Table1, Figure2's four platforms) stay serial: they have
// nothing to fan out.
package experiments

import (
	"fmt"
	"os"
	"runtime"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/fault"
	"easydram/internal/workload"
)

// Options tunes experiment scale. Default() reproduces the paper's sweep
// points; Quick() shrinks everything for unit tests.
type Options struct {
	// Sizes are the Copy/Init sweep points in bytes (Figures 10, 11).
	Sizes []int
	// KernelSize selects PolyBench dimensions (Figures 13, 14, §6).
	KernelSize workload.SizeClass
	// LatSizesKiB are the lmbench working-set points (Figure 8).
	LatSizesKiB []int
	// LatAccesses is the measured access count per lmbench point.
	LatAccesses int
	// HeatRows is the per-bank row count profiled for Figure 12.
	HeatRows int
	// Trials is the clonability test repeat count (§7.1).
	Trials int
	// FPRate is the Bloom filter's target false-positive rate (§8.2).
	FPRate float64
	// Seed drives the DRAM variation model.
	Seed uint64
	// MaxProcCycles aborts runaway runs.
	MaxProcCycles clock.Cycles
	// Workers bounds the experiment worker pool: the number of independent
	// system runs in flight at once. 0 selects GOMAXPROCS (see
	// EffectiveWorkers); 1 forces serial execution. Results are
	// deterministic at any setting.
	Workers int
	// Channels and Ranks select the module topology every kernel runs
	// under (core.Config.Topology): independent channels and ranks per
	// channel bus. 0 leaves the presets' single-channel, single-rank
	// module, which is bit-identical to the legacy engine. Topology is a
	// workload axis: multi-channel runs overlap service and change
	// emulated timing (unlike Workers, which is result-neutral).
	Channels int
	// Ranks is the per-channel rank count (see Channels).
	Ranks int
	// Cores selects the emulated core count the fairness sweep tops out at
	// (cmd/easydram's -cores flag): FairnessSweep runs its mixes at {2,
	// Cores} emulated cores. 0 leaves the default {2, 4} grid. Unlike
	// Workers this is a modeled-system axis: more cores means more
	// contention and different emulated timing.
	Cores int
	// DisturbIntensities are the RowHammer sweep's hammer counts: double-
	// sided activation pairs per victim site (see DisturbSweep).
	DisturbIntensities []int
	// Faults arms the default fault-injection configuration
	// (fault.DefaultConfig) on every kernel run that does not already
	// configure its own faults. Injection is deterministic in Seed.
	Faults bool
	// Mitigation selects a RowHammer mitigation policy ("para" or "trr")
	// for every kernel run that does not already configure one.
	Mitigation string
	// Verbose prints per-run health counters to stderr after each kernel:
	// DRAM protocol violations and the fault-recovery path's work
	// (cmd/easydram's -v flag).
	Verbose bool
	// ProfileLoad is a characterization store directory to warm-start
	// from: experiments that profile (Figure13, WarmStart) first try the
	// stored per-workload profile and fall back to fresh characterization
	// when it is missing, corrupt, or keyed to different silicon
	// (cmd/easydram's -load-profile flag).
	ProfileLoad string
	// ProfileSave is a directory the profiling experiments persist their
	// characterization results to, atomically, for later warm starts
	// (cmd/easydram's -save-profile flag).
	ProfileSave string
	// CheckpointPath, when set, is where the WarmStart sweep writes its
	// mid-run system checkpoint blob (cmd/easydram's -checkpoint flag).
	CheckpointPath string
}

// EffectiveWorkers resolves the worker-pool size: Workers when positive,
// otherwise runtime.GOMAXPROCS(0). Every experiment runner sizes its pool
// through this method, so a zero value always means "use the machine".
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Default returns the paper-scale options.
func Default() Options {
	return Options{
		Sizes: []int{
			8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
			512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
		},
		KernelSize:         workload.Eval,
		LatSizesKiB:        []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
		LatAccesses:        20000,
		HeatRows:           4096,
		Trials:             3,
		FPRate:             0.001,
		Seed:               1,
		MaxProcCycles:      1 << 44,
		DisturbIntensities: []int{64, 256, 1024},
	}
}

// Quick returns unit-test-scale options.
func Quick() Options {
	o := Default()
	o.Sizes = []int{8 << 10, 32 << 10, 128 << 10}
	o.KernelSize = workload.Tiny
	o.LatSizesKiB = []int{4, 64, 2048}
	o.LatAccesses = 2000
	o.HeatRows = 192
	o.DisturbIntensities = []int{24, 96}
	return o
}

// runKernel executes one kernel on a fresh system built from cfg, with the
// option-level knobs (cycle cap, topology, faults) applied.
func runKernel(cfg core.Config, k workload.Kernel, opt Options) (core.Result, error) {
	if opt.MaxProcCycles > 0 {
		cfg.MaxProcCycles = opt.MaxProcCycles
	}
	// Option-level topology applies only where the experiment left the
	// preset default: a sweep that sets its own per-cell topology (the
	// AblationTopology axis) must not be trampled by the global knob.
	if opt.Channels > 0 && cfg.Topology.Channels == 0 {
		cfg.Topology.Channels = opt.Channels
	}
	if opt.Ranks > 0 && cfg.Topology.Ranks == 0 {
		cfg.Topology.Ranks = opt.Ranks
	}
	// Option-level fault injection likewise yields to per-experiment fault
	// configs (the disturb sweep arms its own seams).
	if opt.Faults && !cfg.Faults.Enabled() {
		cfg.Faults = fault.DefaultConfig()
	}
	if opt.Mitigation != "" && opt.Mitigation != "none" && cfg.Mitigation.Policy == "" {
		cfg.Mitigation = fault.MitigationConfig{Policy: opt.Mitigation, Seed: opt.Seed}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, fmt.Errorf("experiments: %s: %w", k.Name, err)
	}
	res, err := sys.Run(k.Stream())
	if err != nil {
		return core.Result{}, fmt.Errorf("experiments: %s: %w", k.Name, err)
	}
	if opt.Verbose {
		reportRun(k.Name, res)
	}
	return res, nil
}

// reportRun emits the per-run health line behind cmd/easydram's -v flag.
// Lines are written atomically (one Fprintf), so parallel cells interleave
// whole lines, never fragments; their order follows pool scheduling.
func reportRun(name string, res core.Result) {
	fmt.Fprintf(os.Stderr,
		"easydram: %s: timing_violations=%d rank_switch_violations=%d"+
			" retries=%d retry_give_ups=%d quarantined_rows=%d remapped_accesses=%d"+
			" mitigation_refreshes=%d launch_fails=%d corrupt_lines=%d short_readbacks=%d\n",
		name, res.Chip.TimingViolations, res.Chip.RankSwitchViolations,
		res.Ctrl.Retries, res.Ctrl.RetryGiveUps, res.Ctrl.QuarantinedRows,
		res.Ctrl.RemappedAccesses, res.Ctrl.MitigationRefreshes,
		res.Tile.LaunchFails, res.Tile.CorruptLines, res.Tile.ShortReadbacks)
}

// Config names used across experiment outputs (the paper's legend).
const (
	NameNoTS      = "EasyDRAM - No Time Scaling"
	NameTS        = "EasyDRAM - Time Scaling"
	NameRamulator = "Ramulator 2.0"
	NameCortex    = "Cortex A57 (modeled)"
)
