package experiments

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/stats"
	"easydram/internal/techniques"
	"easydram/internal/timing"
	"easydram/internal/workload"
)

// Ablations beyond the paper's evaluation: each sweeps one design axis of
// the software-defined memory controller or the modeled system and reports
// execution time on a fixed workload mix, demonstrating the configurability
// the paper's Table 1 claims for EasyDRAM.

// AblationResult holds one swept axis.
type AblationResult struct {
	Axis   string
	Labels []string
	// Cycles is the execution time per configuration.
	Cycles []float64
	// Relative is Cycles normalised to the first configuration.
	Relative []float64
}

// Table renders the sweep.
func (r *AblationResult) Table() string {
	t := stats.Table{
		Title:  fmt.Sprintf("Ablation: %s", r.Axis),
		Header: []string{"configuration", "cycles", "vs first"},
	}
	for i := range r.Labels {
		t.AddRow(r.Labels[i],
			fmt.Sprintf("%.0f", r.Cycles[i]),
			fmt.Sprintf("%.3fx", r.Relative[i]))
	}
	return t.Render()
}

func (r *AblationResult) finish() {
	base := r.Cycles[0]
	for _, c := range r.Cycles {
		r.Relative = append(r.Relative, c/base)
	}
}

// ablationRun executes k on cfg and records the point.
func (r *AblationResult) ablationRun(label string, cfg core.Config, k workload.Kernel, opt Options) error {
	res, err := runKernel(cfg, k, opt)
	if err != nil {
		return err
	}
	r.Labels = append(r.Labels, label)
	r.Cycles = append(r.Cycles, float64(res.ProcCycles))
	return nil
}

// AblationScheduler compares the bundled scheduling policies on a
// read/writeback mix where read priority matters.
func AblationScheduler(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "scheduling policy (reads vs writeback backlog)"}
	k := schedulerStress()
	for _, s := range []smc.Scheduler{smc.FRFCFS{}, smc.FCFS{}, smc.NewBLISS()} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.Scheduler = s
		if err := r.ablationRun(s.Name(), cfg, k, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// schedulerStress mixes a dependent-load chain with store bursts whose
// evictions flood the controller with writebacks.
func schedulerStress() workload.Kernel {
	return workload.Kernel{Name: "scheduler-stress", Body: func(g *workload.Gen) {
		for i := 0; i < 1024; i++ {
			for j := 0; j < 8; j++ {
				g.Store(uint64(256<<20) + uint64(i*8+j)*4096)
			}
			g.LoadDep(uint64(i) * 8192)
		}
	}}
}

// AblationPagePolicy compares open-page and closed-page row management on
// row-friendly (streaming) versus row-hostile (random) traffic.
func AblationPagePolicy(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "row-buffer policy (stream then random)"}
	mix := workload.Kernel{Name: "policy-mix", Body: func(g *workload.Gen) {
		workload.StreamTriad(16384).Body(g)
		workload.RandomAccess(64<<20, 4096).Body(g)
	}}
	for _, p := range []struct {
		name   string
		policy smc.PagePolicy
	}{{"open-page", smc.OpenPage}, {"closed-page", smc.ClosedPage}} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.Policy = p.policy
		if err := r.ablationRun(p.name, cfg, mix, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// AblationPrefetcher measures the L2 next-line prefetcher on a streaming
// kernel (helps) and a pointer chase (wastes bandwidth).
func AblationPrefetcher(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "L2 next-line prefetcher (stream triad)"}
	k := workload.StreamTriad(65536)
	for _, pf := range []bool{false, true} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.CPU.NextLinePrefetch = pf
		label := "off"
		if pf {
			label = "next-line"
		}
		if err := r.ablationRun(label, cfg, k, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// AblationDDR5 swaps the module for DDR5-4800-class timings (double the
// refresh rate, longer bursts) and measures a memory-intensive kernel.
func AblationDDR5(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "DRAM generation (gemver)"}
	k := workload.PBGemver(260)
	for _, gen := range []struct {
		name string
		t    timing.Params
	}{{"ddr4-1333", timing.DDR41333()}, {"ddr4-2400", timing.DDR42400()}, {"ddr5-4800", timing.DDR54800()}} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.DRAM.Timing = gen.t
		if err := r.ablationRun(gen.name, cfg, k, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// AblationTopology sweeps the module topology (channels x ranks) on
// MLP-heavy row-burst traffic — the workload axis the multi-channel module
// model opens. Unlike Workers, topology changes emulated
// results: a second channel overlaps service, and a second rank pays
// rank-to-rank turnarounds for wider banking.
func AblationTopology(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "module topology (channels x ranks, row-burst traffic)"}
	k := workload.SubstrateRowBurst(8192)
	for _, shape := range []struct {
		label           string
		channels, ranks int
	}{
		{"1ch x 1rk", 1, 1}, {"1ch x 2rk", 1, 2}, {"2ch x 1rk", 2, 1},
		{"2ch x 2rk", 2, 2}, {"4ch x 1rk", 4, 1},
	} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.CPU.MLP = 8
		cfg.Topology = dram.Topology{Channels: shape.channels, Ranks: shape.ranks}
		if err := r.ablationRun(shape.label, cfg, k, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// AblationMLP sweeps the out-of-order core's memory-level parallelism on a
// streaming initialisation, showing why streaming baselines accelerate with
// MLP (the mechanism behind the Init workload's modest RowClone gains).
func AblationMLP(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "memory-level parallelism (1 MiB CPU init)"}
	k := workload.CPUInit(0, 1<<20)
	for _, mlp := range []int{1, 2, 4, 8} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.CPU.MLP = mlp
		if err := r.ablationRun(fmt.Sprintf("mlp %d", mlp), cfg, k, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// AblationCtrlLatency sweeps the modeled hardware-controller latency,
// quantifying how sensitive time-scaled results are to this calibration
// constant.
func AblationCtrlLatency(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "modeled controller latency (lat_mem_rd 8 MiB)"}
	k := workload.LatMemRd(8<<20, 4000)
	for _, ns := range []int64{20, 40, 80} {
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.ModeledCtrlLatency = clock.PS(ns * 1000)
		if err := r.ablationRun(fmt.Sprintf("%d ns", ns), cfg, k, opt); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// AblationBloomFP sweeps the weak-row Bloom filter's target false-positive
// rate (§8.2): a sloppier filter costs strong rows their reduced tRCD but
// must never corrupt data, so any corrupted read is an error.
func AblationBloomFP(opt Options) (*AblationResult, error) {
	r := &AblationResult{Axis: "weak-row Bloom filter false-positive rate (gemver)"}
	k := workload.PBGemver(260)
	extent := workload.Extent(k)
	for _, fp := range []float64{0.001, 0.05, 0.3} {
		profCfg := core.TimeScalingA57()
		profCfg.DRAM.Seed = opt.Seed
		profCfg.DRAM.TrackData = true
		profSys, err := core.NewSystem(profCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: bloom-fp: %w", err)
		}
		profile, err := techniques.Characterize(profSys, 0, extent, techniques.ReducedTRCD, fp)
		if err != nil {
			return nil, err
		}
		cfg := core.TimeScalingA57()
		cfg.DRAM.Seed = opt.Seed
		cfg.TRCD = techniques.ProviderFromProfile(profile, profSys.Mapper(), techniques.ReducedTRCD)
		res, err := runKernel(cfg, k, opt)
		if err != nil {
			return nil, err
		}
		if res.Chip.CorruptedReads != 0 {
			return nil, fmt.Errorf("experiments: bloom-fp: fp=%g corrupted %d reads", fp, res.Chip.CorruptedReads)
		}
		r.Labels = append(r.Labels, fmt.Sprintf("fp %g", fp))
		r.Cycles = append(r.Cycles, float64(res.ProcCycles))
	}
	r.finish()
	return r, nil
}

// Ablations runs every sweep; the independent sweeps share the worker pool.
func Ablations(opt Options) ([]*AblationResult, error) {
	runs := []func(Options) (*AblationResult, error){
		AblationScheduler, AblationPagePolicy, AblationPrefetcher, AblationDDR5, AblationTopology,
		AblationMLP, AblationCtrlLatency, AblationBloomFP,
	}
	out := make([]*AblationResult, len(runs))
	err := forEach(opt.EffectiveWorkers(), len(runs), func(i int) error {
		r, err := runs[i](opt)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
