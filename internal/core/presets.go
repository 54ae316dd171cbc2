package core

import (
	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/cpu"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/tile"
)

// The preset configurations below correspond to the systems the paper
// evaluates. Latency constants are calibrated so the Figure 8 profile
// plateaus land where the paper's do (see EXPERIMENTS.md).

// boomPhysClock is the physical clock the BOOM application core closes
// timing at on the VCU108 fabric. It only affects FPGA wall-clock (and so
// simulation-speed) accounting; time scaling hides it from emulated
// results.
var boomPhysClock = clock.FromMHz("boom-phys", 20)

// modeledCtrlLatency is the per-request service latency of the modeled
// target system's memory path outside the DRAM itself: hardware controller
// decision time plus the LLC-to-controller interconnect round trip. It is
// calibrated so the Figure 8 main-memory plateau lands near the measured
// Cortex-A57 value (~125 ns total load-to-use at 1.43 GHz).
const modeledCtrlLatency = 40 * clock.Nanosecond

// TimeScalingA57 is "EasyDRAM - Time Scaling": a BOOM core emulated as a
// 1.43 GHz Cortex-A57 on a 100 MHz FPGA fabric, 512 KiB L2, DDR4-1333.
func TimeScalingA57() Config {
	return Config{
		Scaling:            true,
		FPGA:               clock.FPGA100MHz,
		ProcPhys:           boomPhysClock,
		CPU:                cpu.CortexA57(),
		Hier:               cache.JetsonNanoHier(),
		DRAM:               workloadDRAM(),
		Costs:              tile.DefaultCostModel(),
		Scheduler:          smc.FRFCFS{},
		ModeledCtrlLatency: modeledCtrlLatency,
		RefreshEnabled:     true,
	}
}

// NoTimeScaling is "EasyDRAM - No Time Scaling": the PiDRAM-class system —
// a 50 MHz in-order core whose every miss pays the real software-memory-
// controller latency.
func NoTimeScaling() Config {
	return Config{
		Scaling:        false,
		FPGA:           clock.FPGA100MHz,
		ProcPhys:       clock.Proc50MHz,
		CPU:            cpu.Rocket50(),
		Hier:           cache.JetsonNanoHier(),
		DRAM:           workloadDRAM(),
		Costs:          tile.DefaultCostModel(),
		Scheduler:      smc.FRFCFS{},
		RefreshEnabled: true,
	}
}

// TimeScaling1GHz is the §6 validation configuration: a 100 MHz physical
// processor time-scaled to 1 GHz.
func TimeScaling1GHz() Config {
	cfg := TimeScalingA57()
	cfg.CPU = cpu.Boom1GHz()
	return cfg
}

// Reference1GHz is the §6 validation reference: the same system simulated
// directly at 1 GHz with an RTL memory controller that makes the same
// scheduling decisions (no time scaling needed).
func Reference1GHz() Config {
	return Config{
		Scaling:            false,
		HardwareMC:         true,
		FPGA:               clock.FPGA100MHz,
		ProcPhys:           clock.Proc1GHz,
		CPU:                cpu.Boom1GHz(),
		Hier:               cache.JetsonNanoHier(),
		DRAM:               workloadDRAM(),
		Costs:              tile.DefaultCostModel(),
		Scheduler:          smc.FRFCFS{},
		ModeledCtrlLatency: modeledCtrlLatency,
		RefreshEnabled:     true,
	}
}

// workloadDRAM is the paper's module with the data store disabled: workload
// runs never check data contents, so moving bytes would be pure overhead.
func workloadDRAM() dram.Config {
	cfg := dram.DefaultConfig()
	cfg.TrackData = false
	return cfg
}

// TechniqueDRAM returns the module with data tracking on (profiling and
// RowClone correctness need real contents).
func TechniqueDRAM() dram.Config {
	return dram.DefaultConfig()
}
