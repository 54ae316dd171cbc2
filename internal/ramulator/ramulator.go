// Package ramulator assembles the paper's comparison baseline: a
// Ramulator 2.0-class cycle-level software memory simulator. Per §7.2 it
// differs from EasyDRAM in three deliberate ways:
//
//  1. it models a simple out-of-order core, not the BOOM/A57 system;
//  2. it simulates only part of a workload (an instruction cap);
//  3. it has no real-DRAM characterization: every read is reliable at any
//     tRCD and every intra-subarray RowClone succeeds, so techniques never
//     fall back.
//
// The memory side reuses the repository's DDR4 timing model with an ideal
// (zero-cost) hardware controller, which is how a software simulator
// behaves: scheduling takes no simulated time.
package ramulator

import (
	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/cpu"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/tile"
)

// DefaultInstructionCap mirrors the paper's 500M-instruction Ramulator
// simulations. Experiment drivers scale it with workload size.
const DefaultInstructionCap = 500_000_000

// SimpleOoO is Ramulator 2.0's simple out-of-order core model.
func SimpleOoO() cpu.Config {
	return cpu.Config{
		Name:          "ramulator-o3",
		Clock:         clock.NewClock("ramulator-3ghz", 333),
		InOrder:       false,
		IssueWidth:    4,
		MLP:           4,
		ROBWindow:     96,
		L1Lat:         2,
		L2Lat:         14,
		FlushCost:     4,
		MissIssueCost: 1,
	}
}

// Config assembles the baseline simulator configuration. maxInstructions
// caps the simulated instruction count (0 selects DefaultInstructionCap).
func Config(maxInstructions int64) core.Config {
	if maxInstructions == 0 {
		maxInstructions = DefaultInstructionCap
	}
	cpuCfg := SimpleOoO()
	cpuCfg.MaxInstructions = maxInstructions

	dramCfg := dram.DefaultConfig()
	dramCfg.TrackData = false
	dramCfg.Ideal = true

	return core.Config{
		Scaling:            false,
		HardwareMC:         true,
		FPGA:               clock.FPGA100MHz, // unused: wall time is modelled separately
		ProcPhys:           cpuCfg.Clock,
		CPU:                cpuCfg,
		Hier:               cache.HierConfig{L1Size: 32 << 10, L1Assoc: 4, L2Size: 512 << 10, L2Assoc: 8},
		DRAM:               dramCfg,
		Costs:              tile.DefaultCostModel(),
		Scheduler:          smc.FRFCFS{},
		ModeledCtrlLatency: 10 * clock.Nanosecond,
		RefreshEnabled:     true,
	}
}

// Host-cost model for Figure 14: a software simulator's wall-clock speed is
// dominated by a fixed per-instruction cost plus a per-DRAM-event cost.
// The constants are calibrated to Ramulator 2.0's published simulation
// speeds (hundreds of kHz to ~2 MHz depending on memory intensity); our Go
// reimplementation's own wall clock is deliberately not used, since it
// measures this repository, not Ramulator.
const (
	hostSecPerInstr    = 4.0e-7 // 2.5 M instructions/s peak
	hostSecPerMemEvent = 3.0e-6 // per main-memory request
)

// SimSpeedMHz models the baseline simulator's speed in simulated processor
// MHz for the given run result.
func SimSpeedMHz(r core.Result) float64 {
	instr := float64(r.CPU.Instructions)
	if instr == 0 {
		return 0
	}
	events := float64(r.CPU.MemReads + r.CPU.MemFills + r.CPU.Writebacks)
	hostSec := instr*hostSecPerInstr + events*hostSecPerMemEvent
	if hostSec <= 0 {
		return 0
	}
	cycles := float64(r.ProcCycles)
	return cycles / hostSec / 1e6
}
