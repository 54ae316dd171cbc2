package experiments

import (
	"fmt"

	"easydram/internal/core"
	"easydram/internal/stats"
	"easydram/internal/workload"
)

// BreakdownResult holds Figure 2 data: where the time of a main-memory
// request goes on each platform, measured (not sketched, as in the paper's
// qualitative figure) from a dependent-load microbenchmark.
type BreakdownResult struct {
	Platforms []string
	// LatencyNs is the end-to-end per-miss latency in the platform's own
	// emulated nanoseconds.
	LatencyNs []float64
	// LatencyCycles is the same in the platform's processor cycles.
	LatencyCycles []float64
	// SchedulingNs estimates the scheduling component (software controller
	// cycles or modeled hardware latency).
	SchedulingNs []float64
	// MainMemoryNs is the DRAM-array component (identical chips everywhere
	// — the paper's "Main Memory bar stays the same length").
	MainMemoryNs []float64
}

// Platform names in Figure 2's breakdown (consumers look latencies up by
// name, so reordering or extending the platform list cannot silently
// change a derived metric).
const (
	PlatformReal  = "Real system (1.43 GHz, HW MC)"
	PlatformRTLMC = "FPGA + RTL memory controller"
	PlatformSMC   = "FPGA + software memory controller"
	PlatformTS    = "FPGA + SMC + time scaling"
)

// LatencyRatio reports platform a's per-miss latency over platform b's
// (0 when either platform is missing or b's latency is zero).
func (r *BreakdownResult) LatencyRatio(a, b string) float64 {
	var la, lb float64
	for i, p := range r.Platforms {
		if p == a {
			la = r.LatencyNs[i]
		}
		if p == b {
			lb = r.LatencyNs[i]
		}
	}
	if lb == 0 {
		return 0
	}
	return la / lb
}

// Figure2 measures the execution-time breakdown of main-memory requests on
// the four platforms of the paper's motivation figure.
func Figure2(opt Options) (*BreakdownResult, error) {
	type platform struct {
		name string
		cfg  core.Config
	}
	rtl50 := core.NoTimeScaling() // FPGA + RTL memory controller at 50 MHz
	rtl50.HardwareMC = true
	platforms := []platform{
		{PlatformReal, cortexA57Reference()},
		{PlatformRTLMC, rtl50},
		{PlatformSMC, core.NoTimeScaling()},
		{PlatformTS, core.TimeScalingA57()},
	}
	res := &BreakdownResult{}
	const misses = 512
	for _, p := range platforms {
		cfg := p.cfg
		cfg.DRAM.Seed = opt.Seed
		cfg.RefreshEnabled = false // isolate the request path
		k := missKernel(misses)
		r, err := runKernel(cfg, k, opt)
		if err != nil {
			return nil, err
		}
		perMissCycles := float64(r.Window()) / misses
		period := float64(cfg.CPU.Clock.Period()) / 1000 // ns
		res.Platforms = append(res.Platforms, p.name)
		res.LatencyCycles = append(res.LatencyCycles, perMissCycles)
		res.LatencyNs = append(res.LatencyNs, perMissCycles*period)

		dramNs := cfg.DRAM.Timing.ReadLatency().Nanoseconds()
		res.MainMemoryNs = append(res.MainMemoryNs, dramNs)
		res.SchedulingNs = append(res.SchedulingNs, perMissCycles*period-dramNs)
	}
	return res, nil
}

// missKernel emits n dependent main-memory misses with row-miss strides.
func missKernel(n int) workload.Kernel {
	return workload.Kernel{Name: "miss-breakdown", Body: func(g *workload.Gen) {
		stride := uint64(1 << 20)
		for i := 0; i < n; i++ { // warm nothing: every load is a cold miss
			if i == 0 {
				g.Mark()
			}
			g.LoadDep(uint64(i) * stride)
		}
		g.Mark()
	}}
}

// Table renders the breakdown.
func (r *BreakdownResult) Table() string {
	t := stats.Table{
		Title:  "Execution-time breakdown of a main-memory request (measured)",
		Header: []string{"platform", "latency (cycles)", "latency (ns)", "DRAM array (ns)", "non-DRAM (ns)"},
	}
	for i, p := range r.Platforms {
		t.AddRow(p,
			fmt.Sprintf("%.1f", r.LatencyCycles[i]),
			fmt.Sprintf("%.1f", r.LatencyNs[i]),
			fmt.Sprintf("%.1f", r.MainMemoryNs[i]),
			fmt.Sprintf("%.1f", r.SchedulingNs[i]))
	}
	return t.Render()
}

// Table1Result holds the qualitative platform comparison plus EasyDRAM's
// measured evaluation speed.
type Table1Result struct {
	MeasuredCyclesPerSec float64
	table                stats.Table
}

// Table1 reproduces the paper's platform-comparison table, measuring
// EasyDRAM's evaluated-CPU-cycles-per-second entry from a live run.
func Table1(opt Options) (*Table1Result, error) {
	cfg := core.TimeScalingA57()
	cfg.DRAM.Seed = opt.Seed
	k := workload.PBGemver(196)
	r, err := runKernel(cfg, k, opt)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{MeasuredCyclesPerSec: r.SimSpeedMHz * 1e6}
	res.table = stats.Table{
		Title:  "Comparison of EasyDRAM with related evaluation platforms",
		Header: []string{"platform", "real DRAM", "flexible MC", "CPU cycles/s", "accurate perf", "configurable"},
	}
	res.table.AddRow("Commercial systems", "yes", "no", "billions", "yes", "no")
	res.table.AddRow("Software simulators", "no", "yes (C/C++)", "~10K - ~1M", "yes", "yes")
	res.table.AddRow("FPGA-based simulators", "no", "no", "~4M - ~100M", "yes", "yes")
	res.table.AddRow("DRAM testing platforms", "DDR3/4", "no", "N/A", "no", "no")
	res.table.AddRow("FPGA-based emulators", "DDR3/4", "HDL", "50M - 200M", "no", "yes")
	res.table.AddRow("EasyDRAM (this work)", "DDR4", "yes (C/C++)",
		fmt.Sprintf("~%.0fM (measured)", res.MeasuredCyclesPerSec/1e6), "yes", "yes")
	return res, nil
}

// Render returns the table text.
func (r *Table1Result) Render() string { return r.table.Render() }
