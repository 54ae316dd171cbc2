package experiments

import (
	"fmt"

	"easydram/internal/core"
	"easydram/internal/smc"
	"easydram/internal/stats"
	"easydram/internal/workload"
)

// The fairness sweep: run every named multiprogram mix on
// N emulated cores under each scheduler and report the standard multi-core
// fairness metrics. This is BLISS's real habitat — FR-FCFS's row-hit-first
// greed lets streaming cores starve a pointer chase, and the blacklisting
// streak cap is supposed to bound that — so the sweep is the repository's
// first scheduler comparison that measures interference rather than
// single-stream throughput.

// FairnessSchedulers are the schedulers the sweep compares.
var FairnessSchedulers = []string{"fr-fcfs", "bliss"}

// FairnessCell is one (scheduler, mix, core-count) grid point: the per-core
// slowdowns (contended cycles over alone cycles, same scheduler) and their
// summary metrics.
type FairnessCell struct {
	Scheduler string
	Mix       string
	Cores     int
	// Slowdowns and IPCs are per core, in core order.
	Slowdowns []float64
	IPCs      []float64
	// MaxSlowdown is the victim's slowdown; Unfairness is max/min slowdown;
	// WeightedSpeedup is the sum of per-core 1/slowdown (n = no
	// interference).
	MaxSlowdown     float64
	Unfairness      float64
	WeightedSpeedup float64
}

// FairnessResult holds the full scheduler × mix × core-count grid.
type FairnessResult struct {
	Cells []FairnessCell
}

// Cell returns the grid point for (scheduler, mix, cores), or nil.
func (r *FairnessResult) Cell(scheduler, mix string, cores int) *FairnessCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Scheduler == scheduler && c.Mix == mix && c.Cores == cores {
			return c
		}
	}
	return nil
}

// Table renders the grid.
func (r *FairnessResult) Table() string {
	t := stats.Table{
		Title:  "Multi-core fairness: per-scheduler slowdowns under multiprogram mixes",
		Header: []string{"scheduler", "mix", "cores", "max slowdown", "unfairness", "weighted speedup"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Scheduler, c.Mix, fmt.Sprintf("%d", c.Cores),
			fmt.Sprintf("%.3f", c.MaxSlowdown),
			fmt.Sprintf("%.3f", c.Unfairness),
			fmt.Sprintf("%.3f", c.WeightedSpeedup))
	}
	return t.Render()
}

// fairnessConfig assembles one cell's system: the paper's time-scaled
// preset on a single channel (one memory controller, so the cores actually
// contend) with the given scheduler and core count.
func fairnessConfig(opt Options, scheduler string, cores int) (core.Config, error) {
	cfg := core.TimeScalingA57()
	cfg.Cores = cores
	cfg.DRAM.Seed = opt.Seed
	if opt.MaxProcCycles > 0 {
		cfg.MaxProcCycles = opt.MaxProcCycles
	}
	// A fresh scheduler per system: BLISS is stateful.
	sched, err := smc.NewScheduler(scheduler)
	if err != nil {
		return core.Config{}, fmt.Errorf("experiments: %w", err)
	}
	cfg.Scheduler = sched
	return cfg, nil
}

// FairnessCoreCounts resolves the sweep's core-count axis: {2, 4} by
// default, with Options.Cores (when above 1) replacing the top point so
// `-cores 8` sweeps {2, 8}.
func FairnessCoreCounts(opt Options) []int {
	if opt.Cores > 2 {
		return []int{2, opt.Cores}
	}
	if opt.Cores == 2 {
		return []int{2}
	}
	return []int{2, 4}
}

// FairnessSweep runs the scheduler × mix × core-count grid. Each cell is
// one contended run plus one alone run per core (the slowdown baselines:
// the same relocated stream on a fresh single-core system under the same
// scheduler). Cells are independent systems fanned across the worker pool;
// results are deterministic at any worker count.
func FairnessSweep(opt Options) (*FairnessResult, error) {
	mixes := workload.Mixes()
	counts := FairnessCoreCounts(opt)
	scheds := FairnessSchedulers
	cells := make([]FairnessCell, len(scheds)*len(mixes)*len(counts))
	err := forEach(opt.EffectiveWorkers(), len(cells), func(i int) error {
		s := i / (len(mixes) * len(counts))
		m := (i / len(counts)) % len(mixes)
		n := counts[i%len(counts)]
		cell, err := fairnessCell(opt, scheds[s], mixes[m], n)
		if err != nil {
			return err
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FairnessResult{Cells: cells}, nil
}

// fairnessCell measures one grid point.
func fairnessCell(opt Options, scheduler string, mix workload.Mix, cores int) (FairnessCell, error) {
	cfg, err := fairnessConfig(opt, scheduler, cores)
	if err != nil {
		return FairnessCell{}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return FairnessCell{}, fmt.Errorf("experiments: fairness %s/%s/%d: %w", scheduler, mix.Name, cores, err)
	}
	shared, err := sys.RunStreams(mix.Streams(cores))
	if err != nil {
		return FairnessCell{}, fmt.Errorf("experiments: fairness %s/%s/%d: %w", scheduler, mix.Name, cores, err)
	}
	sharedCycles := make([]float64, cores)
	aloneCycles := make([]float64, cores)
	ipcs := make([]float64, cores)
	for c := 0; c < cores; c++ {
		sharedCycles[c] = float64(shared.PerCore[c].ProcCycles)
		ipcs[c] = shared.PerCore[c].IPC()
		// A fresh config per alone run: stateful schedulers (BLISS) must not
		// carry blacklist state from the contended run into a baseline.
		aloneCfg, err := fairnessConfig(opt, scheduler, 0)
		if err != nil {
			return FairnessCell{}, err
		}
		aloneSys, err := core.NewSystem(aloneCfg)
		if err != nil {
			return FairnessCell{}, fmt.Errorf("experiments: fairness %s/%s/%d: %w", scheduler, mix.Name, cores, err)
		}
		alone, err := aloneSys.Run(mix.CoreStream(c, cores))
		if err != nil {
			return FairnessCell{}, fmt.Errorf("experiments: fairness %s/%s/%d alone core %d: %w", scheduler, mix.Name, cores, c, err)
		}
		aloneCycles[c] = float64(alone.ProcCycles)
	}
	slow := stats.Slowdowns(sharedCycles, aloneCycles)
	return FairnessCell{
		Scheduler:       scheduler,
		Mix:             mix.Name,
		Cores:           cores,
		Slowdowns:       slow,
		IPCs:            ipcs,
		MaxSlowdown:     stats.MaxSlowdown(slow),
		Unfairness:      stats.UnfairnessIndex(slow),
		WeightedSpeedup: stats.WeightedSpeedup(slow),
	}, nil
}
