// Package difffuzz is the differential fuzz harness of ROADMAP item 5(a):
// a deterministic, seeded config-space fuzzer that cross-validates the
// EasyDRAM emulator against its direct-simulation baseline (the role
// Ramulator plays in the paper's Figure 13) across the whole configuration
// space — topology, scheduler, refresh, time scaling, faults, mitigation,
// checkpoints and cores — instead of just the golden
// validation configs.
//
// A Case is a pure function of a uint64 seed. For each case the engine
// runs the EasyDRAM stack and, on comparable (fault-free, time-scaled)
// configs, the derived baseline (ramulator.Baseline), gating the paper's
// <1% max / 0.1% avg cycle-error envelope; on ALL configs it checks
// oracle-free invariants: request conservation, run-to-run determinism,
// checkpoint-restored ≡ straight-through bit-identity,
// zero-fault ≡ fault-armed-but-idle identity, the §6 time-scaling
// invariance of the emulated timeline, and TRR's zero-escaped-flips
// guarantee. Every identity check compares core.Result's one output
// projection (Digest, Timeline).
//
// Three entry points share this one engine: the tier-1 deterministic sweep
// (difffuzz_test.go, runs in go test ./...), the native fuzz target
// (FuzzDifferential), and cmd/difffuzz for long budgeted runs. Failing
// cases auto-minimize (minimize.go) and serialize as JSON regressions
// (corpus.go) that replay as named subtests forever.
package difffuzz

import (
	"encoding/json"
	"fmt"

	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// FaultAxes is the fuzzer's serializable projection of fault.Config: each
// injection axis is an explicit field, so the minimizer can zero axes one
// at a time and a JSON regression shows at a glance which layers were hot.
type FaultAxes struct {
	// DisturbThreshold > 0 arms activation-disturb injection with that
	// minimum per-row threshold; DisturbJitter spreads per-row thresholds.
	DisturbThreshold int `json:"disturb_threshold,omitempty"`
	DisturbJitter    int `json:"disturb_jitter,omitempty"`
	// TransientRate / StuckAtRate are the chip-level corruption rates.
	TransientRate float64 `json:"transient_rate,omitempty"`
	StuckAtRate   float64 `json:"stuck_at_rate,omitempty"`
	// LinkFailRate / LinkCorruptRate / LinkDropRate are the host-link rates.
	LinkFailRate    float64 `json:"link_fail_rate,omitempty"`
	LinkCorruptRate float64 `json:"link_corrupt_rate,omitempty"`
	LinkDropRate    float64 `json:"link_drop_rate,omitempty"`
	// Recovery arms the SMC's verify-and-retry read path.
	Recovery bool `json:"recovery,omitempty"`
	// Seed salts every fault draw.
	Seed uint64 `json:"seed,omitempty"`
}

// Enabled reports whether any injection axis is armed.
func (f FaultAxes) Enabled() bool {
	return f.DisturbThreshold > 0 || f.TransientRate > 0 || f.StuckAtRate > 0 ||
		f.LinkFailRate > 0 || f.LinkCorruptRate > 0 || f.LinkDropRate > 0
}

// Config lowers the axes to the stack's fault configuration.
func (f FaultAxes) Config() fault.Config {
	return fault.Config{
		Chip: fault.ChipConfig{
			DisturbEnabled:      f.DisturbThreshold > 0,
			DisturbMinThreshold: f.DisturbThreshold,
			DisturbJitter:       f.DisturbJitter,
			TransientReadRate:   f.TransientRate,
			StuckAtRate:         f.StuckAtRate,
			Seed:                f.Seed,
		},
		Link: fault.LinkConfig{
			ExecFailRate:        f.LinkFailRate,
			ReadbackCorruptRate: f.LinkCorruptRate,
			ReadbackDropRate:    f.LinkDropRate,
			Seed:                f.Seed,
		},
		Recovery: fault.RecoveryConfig{Enabled: f.Recovery},
	}
}

// Case is one point of the configuration space: everything needed to
// assemble a system and its workload, decoded from a seed (Decode) or
// deserialized from a committed regression. All fields are value types so
// cases compare with == and round-trip through JSON byte-identically.
type Case struct {
	// Seed is the decoder input that produced this case (0 for hand-written
	// or minimized cases whose fields no longer match their seed).
	Seed uint64 `json:"seed"`

	// Kernel and KernelDim name a workload from the fuzz pool
	// (workload.BuildKernel replays it).
	Kernel    string `json:"kernel"`
	KernelDim int    `json:"kernel_dim"`

	// Channels / Ranks / Interleave select the module topology.
	Channels   int    `json:"channels"`
	Ranks      int    `json:"ranks"`
	Interleave string `json:"interleave"`

	// Scheduler is "fr-fcfs", "fcfs", or "bliss".
	Scheduler string `json:"scheduler"`
	// Refresh issues REF every tREFI.
	Refresh bool `json:"refresh"`
	// TimeScaling selects the paper's time-scaled emulation; false runs the
	// processor at the physical clock with the SMC's real cost visible.
	TimeScaling bool `json:"time_scaling"`

	// Faults configures injection; Mitigation ("", "para", "trr") the
	// RowHammer policy.
	Faults     FaultAxes `json:"faults"`
	Mitigation string    `json:"mitigation,omitempty"`

	// CheckpointFrac arms the checkpoint-identity check: when in 1..7 the
	// case is re-run with a quiescent-point checkpoint requested at
	// CheckpointFrac/8 of the straight-through run's cycle count, the blob
	// is restored into a fresh identical system, and the restored run must
	// reproduce the straight-through result bit-for-bit. 0 skips the axis.
	// (Appended at the end of Decode, like every new axis, so older seeds
	// keep decoding to the same earlier-axis values.)
	CheckpointFrac int `json:"checkpoint_frac,omitempty"`

	// Cores > 1 runs the case on a multi-core emulated host: every core runs
	// the case's kernel relocated into its own private address window,
	// contending for the shared memory system. A modeled-system axis (the
	// direct-simulation baseline is single-core, so armed cases are judged on
	// invariants and determinism, not the envelope). 0 or 1 runs the
	// unchanged single-core engine.
	Cores int `json:"cores,omitempty"`
}

// splitmix is SplitMix64, the same stateless hash the fault and variation
// models draw with.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawStream yields a deterministic sequence of draws from one seed. Each
// draw is keyed on (seed, ordinal), so inserting a new axis at the end of
// Decode never perturbs earlier axes' draws.
type drawStream struct {
	seed uint64
	n    uint64
}

func (s *drawStream) next() uint64 {
	s.n++
	return splitmix(s.seed ^ s.n*0xbf58476d1ce4e5b9)
}

// mod returns a draw in [0, n).
func (s *drawStream) mod(n uint64) uint64 { return s.next() % n }

// chance reports true with probability num/den.
func (s *drawStream) chance(num, den uint64) bool { return s.mod(den) < num }

// Decode maps a seed to its Case: a pure function, so the tier-1 sweep,
// the native fuzz target, and cmd/difffuzz all explore the same space and
// any failing seed replays everywhere.
//
// The distribution is deliberately biased: most draws are fault-free
// (faults exclude a case from the cycle-error envelope, and the envelope
// is the harness's sharpest oracle) and time-scaled (the paper's primary
// mode), while every axis still gets regular coverage.
func Decode(seed uint64) Case {
	s := &drawStream{seed: splitmix(seed)}
	c := Case{Seed: seed}

	c.Kernel, c.KernelDim = workload.PickKernel(s.next(), s.next())

	c.Channels = 1 << s.mod(3) // 1, 2, 4
	c.Ranks = 1 << s.mod(2)    // 1, 2
	if s.chance(1, 4) {
		c.Interleave = "row"
	} else {
		c.Interleave = "line"
	}

	switch s.mod(4) {
	case 0:
		c.Scheduler = "fcfs"
	case 1:
		c.Scheduler = "bliss"
	default:
		c.Scheduler = "fr-fcfs"
	}

	// Retired ordinals: these two draws once chose a row-hit burst cap (an
	// axis since removed). They are still consumed and discarded so every
	// later axis keeps its ordinal and decodes exactly as before
	// (TestDecodeStability pins that).
	if s.chance(1, 2) {
		s.next()
	}
	c.Refresh = s.chance(3, 4)
	c.TimeScaling = s.chance(3, 4)

	// Fault axes, with zero-injection bias: 5 in 8 cases inject nothing, so
	// the majority of the corpus stays inside the envelope oracle.
	if s.chance(3, 8) {
		f := &c.Faults
		f.Seed = s.next()
		if s.chance(1, 2) {
			f.DisturbThreshold = 16 << s.mod(3) // 16, 32, 64
			f.DisturbJitter = int(s.mod(uint64(f.DisturbThreshold)))
		}
		if s.chance(1, 2) {
			f.TransientRate = 0.02
		}
		if s.chance(1, 3) {
			f.StuckAtRate = 0.002
		}
		if s.chance(1, 3) {
			f.LinkFailRate = 0.01
			f.LinkCorruptRate = 0.01
		}
		if s.chance(1, 4) {
			f.LinkDropRate = 0.01
		}
		// Any injection arms recovery: corrupted readbacks without the
		// verify-and-retry path would (correctly) poison results, and link
		// exec failures hard-require it (fault.Config.Validate).
		f.Recovery = f.Enabled()
		if !f.Enabled() {
			*f = FaultAxes{}
		}
	}

	// Mitigation: mostly off, with PARA and TRR drawn regularly.
	switch s.mod(8) {
	case 0:
		c.Mitigation = "para"
	case 1:
		c.Mitigation = "trr"
		// TRR's structural guarantee needs every victim refreshed before the
		// chip's minimum threshold; with the policy's default threshold 16,
		// disturb minimums below 33 would let flips escape legitimately and
		// poison the invariant. Clamp armed disturb up into the safe range.
		if c.Faults.DisturbThreshold > 0 && c.Faults.DisturbThreshold < 64 {
			c.Faults.DisturbThreshold = 64
		}
	}

	// Checkpoint/restore identity (the durable-snapshot subsystem's fuzzed
	// contract): 1 in 4 cases re-runs with a checkpoint at a seeded mid-run
	// fraction and requires the restored run to match bit-for-bit. Two
	// extra full runs per armed case, so the bias keeps the sweep budget
	// flat-ish.
	if s.chance(1, 4) {
		c.CheckpointFrac = 1 + int(s.mod(6)) // 1/8 .. 6/8 into the run
	}

	// Retired ordinals: on multi-channel cases these draws once chose a
	// host shard-worker count (an axis since removed). They are still
	// consumed and discarded, like the burst cap's above.
	if c.Channels > 1 && s.chance(1, 3) {
		s.next()
	}

	// Multi-core emulated hosts (appended last, decoder purity): 1 in 4
	// cases runs the kernel on every core of a small multi-core system. The
	// axis trades away the envelope oracle (the baseline is single-core), so
	// the bias keeps most of the corpus comparable. Armed cases disarm the
	// checkpoint axis, which multi-core systems reject.
	if s.chance(1, 4) {
		c.Cores = 2 + int(s.mod(3)) // 2, 3, 4
		c.CheckpointFrac = 0
	}
	return c
}

// Workload instantiates the case's kernel.
func (c Case) Workload() (workload.Kernel, error) {
	return workload.BuildKernel(c.Kernel, c.KernelDim)
}

// SystemConfig assembles the EasyDRAM configuration for the case. Each call
// returns a fresh value (stateful schedulers must never be shared between
// runs).
func (c Case) SystemConfig() (core.Config, error) {
	cfg := core.TimeScaling1GHz()
	if !c.TimeScaling {
		// Direct emulation: the processor follows the physical clock, and the
		// software controller's real cost is visible (the PiDRAM-style mode,
		// here at the emulated core's own rate).
		cfg.Scaling = false
		cfg.ProcPhys = cfg.CPU.Clock
	}

	il, err := dram.ParseInterleave(c.Interleave)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Topology = dram.Topology{Channels: c.Channels, Ranks: c.Ranks, Interleave: il}

	if cfg.Scheduler, err = smc.NewScheduler(c.Scheduler); err != nil {
		return core.Config{}, fmt.Errorf("difffuzz: %w", err)
	}

	cfg.RefreshEnabled = c.Refresh
	cfg.Faults = c.Faults.Config()
	if c.Mitigation != "" {
		cfg.Mitigation = fault.MitigationConfig{Policy: c.Mitigation, Seed: c.Faults.Seed}
	}
	cfg.Cores = c.Cores
	return cfg, nil
}

// String renders the case compactly for test names and logs.
func (c Case) String() string {
	mit := c.Mitigation
	if mit == "" {
		mit = "none"
	}
	return fmt.Sprintf("%s/%d %dch%drk/%s %s refresh=%v ts=%v faults=%v mit=%s ck=%d cores=%d",
		c.Kernel, c.KernelDim, c.Channels, c.Ranks, c.Interleave, c.Scheduler,
		c.Refresh, c.TimeScaling, c.Faults.Enabled(), mit, c.CheckpointFrac, c.Cores)
}

// MarshalIndent renders the case as the canonical JSON used in regression
// files and digests.
func (c Case) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}
