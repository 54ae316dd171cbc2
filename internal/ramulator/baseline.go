package ramulator

import (
	"easydram/internal/core"
)

// Baseline derives the software-simulator reference for an arbitrary
// EasyDRAM configuration: the same emulated system (CPU model, cache
// hierarchy, DRAM timing and topology, scheduler policy, page policy,
// refresh, fault and mitigation setup) simulated directly —
// no time scaling, with a zero-cost hardware controller making the same
// scheduling decisions. This generalizes the §6 validation pair
// (core.TimeScaling1GHz vs core.Reference1GHz) across every configuration
// axis, which is what lets the differential fuzzer hold the paper's <1%
// cycle-error envelope on randomly drawn configs instead of just the
// golden one.
//
// Raw Config() is deliberately NOT that reference: it models Ramulator's
// own simple out-of-order core, so its cycle counts are not comparable to
// an EasyDRAM run of a different CPU model. Baseline keeps the case's CPU
// and varies only how the memory controller's cost is accounted.
func Baseline(cfg core.Config) core.Config {
	ref := cfg
	ref.Scaling = false
	ref.HardwareMC = true
	// Without scaling the engine requires the emulated clock to BE the
	// physical clock (core.Config.Validate); a direct simulation runs the
	// processor at its emulated rate.
	ref.ProcPhys = cfg.CPU.Clock
	return ref
}
