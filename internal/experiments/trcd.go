package experiments

import (
	"fmt"

	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/ramulator"
	"easydram/internal/stats"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// HeatmapResult holds Figure 12 data: per-row minimum reliable tRCD for
// the first banks of the module.
type HeatmapResult struct {
	Banks int
	Rows  int
	// MinTRCDns[bank][row] is the profiled minimum reliable tRCD in ns.
	MinTRCDns [][]float64
	// StrongFraction is the measured fraction of rows reliable at 9.0 ns.
	StrongFraction float64
	NominalNs      float64
}

// Figure12 profiles the minimum reliable tRCD of opt.HeatRows rows in each
// of the first two banks, using whole-row §8.1 profiling requests end to
// end (one host round-trip per row per tRCD level).
//
// The (bank, row) grid is sharded into contiguous chunks across the
// experiment worker pool; every shard owns an independent profiling system,
// and per-row outcomes are a pure function of the seeded variation model,
// so the assembled heatmap is identical at any Options.Workers setting.
func Figure12(opt Options) (*HeatmapResult, error) {
	cfg := core.TimeScalingA57()
	cfg.DRAM = core.TechniqueDRAM()
	cfg.DRAM.Seed = opt.Seed
	nominal := cfg.DRAM.Timing.TRCD
	res := &HeatmapResult{
		Banks:     2,
		Rows:      opt.HeatRows,
		NominalNs: nominal.Nanoseconds(),
	}
	res.MinTRCDns = make([][]float64, res.Banks)
	for b := range res.MinTRCDns {
		res.MinTRCDns[b] = make([]float64, res.Rows)
	}

	total := res.Banks * res.Rows
	if total == 0 {
		return res, nil
	}
	nShards := opt.EffectiveWorkers() * 2 // 2x shards per worker smooths uneven shard cost
	if nShards > total {
		nShards = total
	}
	if nShards < 1 {
		nShards = 1
	}
	chunk := (total + nShards - 1) / nShards
	nShards = (total + chunk - 1) / chunk

	strong := make([]int, nShards)
	err := forEach(opt.EffectiveWorkers(), nShards, func(s int) error {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > total {
			hi = total
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return fmt.Errorf("experiments: figure12: %w", err)
		}
		for i := lo; i < hi; i++ {
			bank, row := i/res.Rows, i%res.Rows
			base := sys.Mapper().Unmap(dram.Addr{Bank: bank, Row: row})
			min, err := techniques.MinReliableTRCD(sys, base, nominal)
			if err != nil {
				return fmt.Errorf("experiments: figure12: %w", err)
			}
			res.MinTRCDns[bank][row] = min.Nanoseconds()
			if min <= techniques.ReducedTRCD {
				strong[s]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sum := 0
	for _, c := range strong {
		sum += c
	}
	res.StrongFraction = float64(sum) / float64(total)
	return res, nil
}

// Heatmap renders the profile as ASCII (one glyph per row group).
func (r *HeatmapResult) Heatmap() string {
	out := ""
	const groups = 64
	for bank := range r.MinTRCDns {
		vals := r.MinTRCDns[bank]
		per := len(vals) / groups
		if per == 0 {
			per = 1
		}
		grid := make([][]float64, 0, groups)
		for g := 0; g < len(vals); g += per * 8 {
			row := make([]float64, 0, 8)
			for x := 0; x < 8 && g+x*per < len(vals); x++ {
				// Group max: the weakest row in the group.
				max := 0.0
				for i := 0; i < per && g+x*per+i < len(vals); i++ {
					if v := vals[g+x*per+i]; v > max {
						max = v
					}
				}
				row = append(row, max)
			}
			grid = append(grid, row)
		}
		out += stats.Heatmap(
			fmt.Sprintf("Bank %d minimum reliable tRCD (.=9.0ns -=9.5 +=10.0 #=10.5+)", bank),
			grid, []float64{9.0, 9.5, 10.0}, ".-+#")
	}
	out += fmt.Sprintf("strong rows (<=9.0ns): %.1f%% (nominal tRCD %.1fns)\n",
		100*r.StrongFraction, r.NominalNs)
	return out
}

// TRCDResult holds Figures 13 and 14 data.
type TRCDResult struct {
	Names []string
	// Speedup maps configuration name -> per-workload execution-time
	// speedup of reduced-tRCD over nominal.
	Speedup map[string][]float64
	// SimSpeedMHz maps configuration name -> simulation speed (Figure 14).
	SimSpeedMHz map[string][]float64
	// MPKI is the baseline LLC misses per kilo-instruction per workload.
	MPKI []float64
	// WeakFraction is the profiled weak-row fraction per workload range.
	WeakFraction []float64
}

// Figure13 evaluates tRCD reduction end to end on the 11 PolyBench
// workloads: characterize the rows each workload touches (§8.1), build the
// weak-row Bloom filter (§8.2), then compare execution time with and
// without the reduced-tRCD scheduler hook on both EasyDRAM (time scaling)
// and the Ramulator baseline. Figure 14's simulation speeds come from the
// same runs. Every workload (its profiling pass plus its four measured
// runs) is one independent worker-pool cell.
func Figure13(opt Options) (*TRCDResult, error) {
	kernels := workload.Fig13Suite(opt.KernelSize)
	n := len(kernels)
	res := &TRCDResult{
		Names: make([]string, n),
		Speedup: map[string][]float64{
			NameTS: make([]float64, n), NameRamulator: make([]float64, n),
		},
		SimSpeedMHz: map[string][]float64{
			NameTS: make([]float64, n), NameRamulator: make([]float64, n),
		},
		MPKI:         make([]float64, n),
		WeakFraction: make([]float64, n),
	}
	err := forEach(opt.EffectiveWorkers(), n, func(i int) error {
		k := kernels[i]
		res.Names[i] = k.Name
		extent := workload.Extent(k)

		// Host-driven characterization on a scratch system with the data
		// store enabled.
		profCfg := core.TimeScalingA57()
		profCfg.DRAM = core.TechniqueDRAM()
		profCfg.DRAM.Seed = opt.Seed
		profSys, err := core.NewSystem(profCfg)
		if err != nil {
			return fmt.Errorf("experiments: figure13: %w", err)
		}
		// Warm-start through the durable profile store when a store is
		// configured; a fresh characterization otherwise. The rebuilt
		// provider is bit-identical either way.
		profile, _, err := characterizeWarm(profSys, k.Name, extent, opt)
		if err != nil {
			return err
		}
		provider := techniques.ProviderFromProfile(profile, profSys.Mapper(), techniques.ReducedTRCD)
		res.WeakFraction[i] = profile.WeakFraction()

		for _, c := range []rcConfig{
			{NameTS, core.TimeScalingA57()},
			{NameRamulator, ramulator.Config(0)},
		} {
			base := c.cfg
			base.DRAM.Seed = opt.Seed
			fast := base
			fast.TRCD = provider

			baseRes, err := runKernel(base, k, opt)
			if err != nil {
				return err
			}
			fastRes, err := runKernel(fast, k, opt)
			if err != nil {
				return err
			}
			if fastRes.ProcCycles == 0 {
				return fmt.Errorf("experiments: figure13: %s ran for zero cycles", k.Name)
			}
			res.Speedup[c.name][i] = float64(baseRes.ProcCycles) / float64(fastRes.ProcCycles)
			speed := baseRes.SimSpeedMHz
			if c.name == NameRamulator {
				speed = ramulator.SimSpeedMHz(baseRes)
			}
			res.SimSpeedMHz[c.name][i] = speed
			if c.name == NameTS {
				res.MPKI[i] = baseRes.MPKI()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders Figure 13 (speedups).
func (r *TRCDResult) Table() string {
	t := stats.Table{
		Title:  "tRCD reduction: execution-time speedup over nominal tRCD",
		Header: []string{"workload", "EasyDRAM", "Ramulator 2.0", "MPKI", "weak rows"},
	}
	for i, n := range r.Names {
		t.AddRow(n,
			fmt.Sprintf("%.4f", r.Speedup[NameTS][i]),
			fmt.Sprintf("%.4f", r.Speedup[NameRamulator][i]),
			fmt.Sprintf("%.2f", r.MPKI[i]),
			fmt.Sprintf("%.1f%%", 100*r.WeakFraction[i]))
	}
	t.AddRow("geomean",
		fmt.Sprintf("%.4f", stats.Geomean(r.Speedup[NameTS])),
		fmt.Sprintf("%.4f", stats.Geomean(r.Speedup[NameRamulator])), "", "")
	return t.Render()
}

// SpeedTable renders Figure 14 (simulation speed).
func (r *TRCDResult) SpeedTable() string {
	t := stats.Table{
		Title:  "Simulation speed (simulated processor MHz)",
		Header: []string{"workload", "EasyDRAM", "Ramulator 2.0", "ratio"},
	}
	var ratios []float64
	for i, n := range r.Names {
		e, m := r.SimSpeedMHz[NameTS][i], r.SimSpeedMHz[NameRamulator][i]
		ratio := 0.0
		if m > 0 {
			ratio = e / m
		}
		ratios = append(ratios, ratio)
		t.AddRow(n, fmt.Sprintf("%.2f", e), fmt.Sprintf("%.2f", m), fmt.Sprintf("%.1fx", ratio))
	}
	t.AddRow("geomean",
		fmt.Sprintf("%.2f", stats.Geomean(r.SimSpeedMHz[NameTS])),
		fmt.Sprintf("%.2f", stats.Geomean(r.SimSpeedMHz[NameRamulator])),
		fmt.Sprintf("%.1fx", stats.Geomean(ratios)))
	return t.Render()
}

// AvgSpeedupPct reports the named config's mean improvement percentage.
func (r *TRCDResult) AvgSpeedupPct(name string) float64 {
	var pts []float64
	for _, s := range r.Speedup[name] {
		pts = append(pts, (s-1)*100)
	}
	return stats.Mean(pts)
}

// MaxSpeedupPct reports the named config's maximum improvement percentage.
func (r *TRCDResult) MaxSpeedupPct(name string) float64 {
	var best float64
	for _, s := range r.Speedup[name] {
		if p := (s - 1) * 100; p > best {
			best = p
		}
	}
	return best
}
