package difffuzz

import (
	"fmt"
	"math"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/fault"
	"easydram/internal/ramulator"
	"easydram/internal/workload"
)

// EnvelopeMaxPct is the paper's per-config cycle-error bound (Figure 13:
// every kernel under 1%); EnvelopeAvgPct the sweep-average bound (§6).
const (
	EnvelopeMaxPct = 1.0
	EnvelopeAvgPct = 0.1
)

// EnvelopeMinCycles floors envelope judgment: a baseline run shorter than
// this cannot amortize the engines' constant ~20-cycle startup/drain
// difference, so its relative error measures quantization, not fidelity
// (the paper validates on full kernels for the same reason). Shorter
// comparable runs are demoted to invariants-only.
const EnvelopeMinCycles = 4096

// maxProcCycles aborts runaway cases (a broken mutation can livelock a
// scheduler); two billion emulated cycles is ~4 orders of magnitude above
// the largest pool kernel.
const maxProcCycles = clock.Cycles(2_000_000_000)

// Failure describes one failed check, named so a minimized case can be
// required to reproduce the SAME failure (minimize.go) and a regression
// file records what it once broke.
type Failure struct {
	// Check identifies the oracle: "decode", "run", "conservation",
	// "rank-bus", "fault-counters", "trr-escape", "determinism",
	// "shard-identity", "armed-idle", "checkpoint-identity", "time-scaling",
	// "envelope".
	Check string `json:"check"`
	// Detail is the human-readable mismatch.
	Detail string `json:"detail"`
}

func failf(check, format string, args ...any) *Failure {
	return &Failure{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// Report is one case's verdict.
type Report struct {
	Case Case `json:"case"`
	// Comparable marks cases judged against the baseline envelope
	// (time-scaled, zero injection).
	Comparable bool `json:"comparable"`
	// ErrPct is the EasyDRAM-vs-baseline cycle error (comparable cases).
	ErrPct float64 `json:"err_pct"`
	// ProcCycles / BaselineCycles are the two stacks' primary metrics.
	ProcCycles     int64 `json:"proc_cycles"`
	BaselineCycles int64 `json:"baseline_cycles,omitempty"`
	// Runs counts full system runs the case consumed.
	Runs int `json:"runs"`
	// Failure is nil when every applicable check passed.
	Failure *Failure `json:"failure,omitempty"`
}

// Comparable reports whether the case is judged against the cycle-error
// envelope: time scaling on (the paper's mode; the baseline direct
// simulation is its reference), no fault injection (faults perturb the
// two stacks differently by design — retry backoff is emulated time), and
// a single core (the baseline has no multi-core contention model).
func (c Case) Comparable() bool {
	return c.TimeScaling && !c.Faults.Enabled() && c.Cores <= 1
}

// runOnce assembles a fresh system for the case and runs its kernel.
// mutate is the test-only breakage hook (applied to the EasyDRAM side
// only, never the baseline); transform derives the run variant (serial
// shard twin, armed-idle, hidden-cost mutation, baseline). A fresh
// core.Config per run is load-bearing: stateful schedulers (BLISS) must
// never be shared between runs.
func runOnce(c Case, mutate, transform func(*core.Config)) (core.Result, error) {
	k, err := c.Workload()
	if err != nil {
		return core.Result{}, err
	}
	cfg, err := buildConfig(c, mutate)
	if err != nil {
		return core.Result{}, err
	}
	if transform != nil {
		transform(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	if cfg.Cores > 1 {
		// Multi-core: every core runs the case's kernel in its own private
		// address window (the emulated fabric has no coherence protocol).
		streams := make([]workload.Stream, cfg.Cores)
		for i := range streams {
			streams[i] = workload.OffsetStream(k.Stream(), uint64(i)*workload.MixWindowBytes)
		}
		return sys.RunStreams(streams)
	}
	return sys.Run(k.Stream())
}

// buildConfig assembles the case's config with the engine cycle cap and the
// test-only mutate hook applied — the exact config runOnce runs, factored
// out so the checkpoint paths build byte-identical systems.
func buildConfig(c Case, mutate func(*core.Config)) (core.Config, error) {
	cfg, err := c.SystemConfig()
	if err != nil {
		return core.Config{}, err
	}
	cfg.MaxProcCycles = maxProcCycles
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg, nil
}

// runCheckpointed runs the case with a quiescent-point checkpoint requested
// at cycle at. The returned blob is nil when the system never quiesced past
// the mark (graceful, not an error).
func runCheckpointed(c Case, mutate func(*core.Config), at clock.Cycles) (core.Result, []byte, error) {
	k, err := c.Workload()
	if err != nil {
		return core.Result{}, nil, err
	}
	cfg, err := buildConfig(c, mutate)
	if err != nil {
		return core.Result{}, nil, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	return sys.RunCheckpoint(k.Stream(), at)
}

// runRestored loads a checkpoint blob into a fresh identical system and
// runs the case to completion from it.
func runRestored(c Case, mutate func(*core.Config), blob []byte) (core.Result, error) {
	k, err := c.Workload()
	if err != nil {
		return core.Result{}, err
	}
	cfg, err := buildConfig(c, mutate)
	if err != nil {
		return core.Result{}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.RunRestored(k.Stream(), blob)
}

// checkInvariants runs the oracle-free checks every config must satisfy.
func checkInvariants(c Case, r core.Result) *Failure {
	// Request conservation across the three seams: every request the CPU
	// issued entered a tile, was served by a controller, and produced a
	// response that released its slot.
	issued := r.CPU.MemReads + r.CPU.MemFills + r.CPU.Writebacks +
		r.CPU.Flushes + r.CPU.RowClones + r.CPU.Prefetches
	if issued != r.Tile.RequestsIn || r.Tile.RequestsIn != r.Tile.ResponsesOut ||
		r.Ctrl.Served != r.Tile.RequestsIn {
		return failf("conservation",
			"cpu issued %d, tile in %d, tile out %d, ctrl served %d — requests leaked or duplicated",
			issued, r.Tile.RequestsIn, r.Tile.ResponsesOut, r.Ctrl.Served)
	}
	// The shared rank bus never admits a CAS inside the rank-to-rank
	// turnaround window.
	if r.Chip.RankSwitchViolations != 0 {
		return failf("rank-bus", "%d rank-switch violations on a %d-rank channel",
			r.Chip.RankSwitchViolations, c.Ranks)
	}
	// Fault counters stay zero when their injection axis is off.
	if c.Faults.DisturbThreshold == 0 && r.Chip.DisturbFlips != 0 {
		return failf("fault-counters", "disturb disabled but %d flips recorded", r.Chip.DisturbFlips)
	}
	if !c.Faults.Enabled() {
		if n := r.Ctrl.Retries + r.Ctrl.RetryGiveUps + r.Ctrl.QuarantinedRows + r.Ctrl.RemappedAccesses; n != 0 {
			return failf("fault-counters", "fault-free run recorded recovery activity (%d events)", n)
		}
		if n := r.Tile.LaunchFails + r.Tile.CorruptLines + r.Tile.ShortReadbacks; n != 0 {
			return failf("fault-counters", "fault-free run recorded %d link faults", n)
		}
	}
	// TRR's structural guarantee: its counter policy refreshes every victim
	// before 2*threshold activations, so with the chip's minimum disturb
	// threshold above that (the decoder and minimizer preserve this), no
	// flip can escape. PARA is probabilistic and gets no such check.
	if c.Mitigation == "trr" && c.Faults.DisturbThreshold >= 64 && r.Chip.DisturbFlips != 0 {
		return failf("trr-escape", "TRR let %d flips escape (disturb threshold %d)",
			r.Chip.DisturbFlips, c.Faults.DisturbThreshold)
	}
	return nil
}

// armIdleFaults is the armed-but-idle transform: the full fault and
// recovery machinery is wired into the system, but thresholds and rates
// guarantee zero injections, so the run must be bit-identical in emulated
// time to the fault-free build — the "fault seams cost nothing when idle"
// contract PR 6 pinned on the golden configs, here fuzzed across the space.
func armIdleFaults(cfg *core.Config) {
	cfg.Faults = fault.Config{
		Chip: fault.ChipConfig{
			DisturbEnabled:      true,
			DisturbMinThreshold: 1 << 30,
		},
		Recovery: fault.RecoveryConfig{Enabled: true},
	}
}

// RunCase runs every applicable check for one case. mutate, when non-nil,
// is applied to each EasyDRAM-side config (never the baseline): the tests
// use it to plant a deliberately broken scheduler and prove the harness
// catches it.
func RunCase(c Case, mutate func(*core.Config)) Report {
	rep := Report{Case: c, Comparable: c.Comparable()}

	main, err := runOnce(c, mutate, nil)
	rep.Runs++
	if err != nil {
		rep.Failure = failf("run", "%v", err)
		return rep
	}
	rep.ProcCycles = int64(main.ProcCycles)

	if f := checkInvariants(c, main); f != nil {
		rep.Failure = f
		return rep
	}

	// Run-to-run determinism. Every fault draw and schedule decision is a
	// pure function of config and request stream, so a second identical run
	// must reproduce the first bit-for-bit. Multi-channel fan-out, fault
	// models, and the multi-core merge loop carry the interesting state;
	// restricting the double-run to those keeps the sweep's run budget flat.
	if c.Channels > 1 || c.Faults.Enabled() || c.Cores > 1 {
		again, err := runOnce(c, mutate, nil)
		rep.Runs++
		if err != nil {
			rep.Failure = failf("determinism", "rerun failed: %v", err)
			return rep
		}
		if d := main.OutputDiff(again); d != "" {
			rep.Failure = failf("determinism", "identical config produced different results: %s", d)
			return rep
		}
	}

	// Sharded ≡ serial: host-parallel channel execution must be invisible
	// in every field of the result — not just emulated time but every
	// statistic and the host-side counters too (the shard runner replays
	// the exact serial step order; see core/shard.go). The main run used
	// the case's worker count, so compare it against a single-worker twin.
	if c.ShardWorkers > 1 && c.Channels > 1 && c.Cores <= 1 {
		serial, err := runOnce(c, mutate, func(cfg *core.Config) { cfg.ShardWorkers = 1 })
		rep.Runs++
		if err != nil {
			rep.Failure = failf("shard-identity", "single-worker counterpart failed: %v", err)
			return rep
		}
		if d := main.OutputDiff(serial); d != "" {
			rep.Failure = failf("shard-identity", "%d shard workers changed the result (sharded vs serial): %s",
				c.ShardWorkers, d)
			return rep
		}
	}

	// Zero faults ≡ armed-but-idle: arming the full recovery + disturb
	// machinery with unreachable thresholds must not change any output.
	if !c.Faults.Enabled() {
		armed, err := runOnce(c, mutate, armIdleFaults)
		rep.Runs++
		if err != nil {
			rep.Failure = failf("armed-idle", "armed counterpart failed: %v", err)
			return rep
		}
		if d := main.OutputDiff(armed); d != "" {
			rep.Failure = failf("armed-idle", "armed-but-idle faults changed the run (plain vs armed): %s", d)
			return rep
		}
	}

	// Checkpoint ≡ straight-through: re-run the case requesting a
	// quiescent-point checkpoint at a seeded mid-run cycle, then restore
	// the blob into a fresh identical system; both the checkpointed run
	// and the restored run must reproduce the uninterrupted result
	// bit-for-bit. A run that never quiesces past the mark captures no
	// blob and passes vacuously — the snapshot subsystem's graceful-
	// degradation contract, fuzzed across the config space.
	if c.CheckpointFrac > 0 && c.Cores <= 1 && main.ProcCycles >= 8 {
		at := main.ProcCycles * clock.Cycles(c.CheckpointFrac) / 8
		ckRun, blob, err := runCheckpointed(c, mutate, at)
		rep.Runs++
		if err != nil {
			rep.Failure = failf("checkpoint-identity", "checkpointed run failed: %v", err)
			return rep
		}
		if d := main.OutputDiff(ckRun); d != "" {
			rep.Failure = failf("checkpoint-identity",
				"requesting a checkpoint at cycle %d changed the run (plain vs ckpt): %s", at, d)
			return rep
		}
		if blob != nil {
			restored, err := runRestored(c, mutate, blob)
			rep.Runs++
			if err != nil {
				rep.Failure = failf("checkpoint-identity", "restore from cycle-%d checkpoint failed: %v", at, err)
				return rep
			}
			if d := main.OutputDiff(restored); d != "" {
				rep.Failure = failf("checkpoint-identity",
					"restored run diverged from straight-through (checkpoint at cycle %d, %d-byte blob; full vs restored): %s",
					at, len(blob), d)
				return rep
			}
		}
	}

	// Time scaling hides the controller's cost (§6): under one of the
	// changes core.HiddenCostMutations lists, chosen from the case seed (not
	// a Case axis, so decoding and the corpus are unaffected), the emulated
	// timeline must not move.
	if c.TimeScaling {
		muts := core.HiddenCostMutations()
		m := muts[splitmix(c.Seed)%uint64(len(muts))]
		mutated, err := runOnce(c, mutate, m.Apply)
		rep.Runs++
		if err != nil {
			rep.Failure = failf("time-scaling", "run under %s failed: %v", m.Name, err)
			return rep
		}
		if main.Timeline() != mutated.Timeline() {
			rep.Failure = failf("time-scaling", "%s changed the emulated timeline: %s", m.Name, main.OutputDiff(mutated))
			return rep
		}
	}

	// The paper's envelope: EasyDRAM's time-scaled cycle count vs the same
	// system simulated directly (the Ramulator role). Only the EasyDRAM
	// side takes the mutate hook, so a planted bug shows up as divergence.
	if rep.Comparable {
		base, err := runOnce(c, nil, func(cfg *core.Config) { *cfg = ramulator.Baseline(*cfg) })
		rep.Runs++
		if err != nil {
			rep.Failure = failf("envelope", "baseline run failed: %v", err)
			return rep
		}
		rep.BaselineCycles = int64(base.ProcCycles)
		if base.ProcCycles < EnvelopeMinCycles {
			// Too little work to measure a relative envelope; the case keeps
			// its invariant verdicts but is not envelope-judged.
			rep.Comparable = false
			return rep
		}
		rep.ErrPct = 100 * math.Abs(float64(main.ProcCycles)-float64(base.ProcCycles)) / float64(base.ProcCycles)
		if rep.ErrPct >= EnvelopeMaxPct {
			rep.Failure = failf("envelope", "cycle error %.4f%% >= %.1f%% (easydram %d vs baseline %d cycles)",
				rep.ErrPct, EnvelopeMaxPct, main.ProcCycles, base.ProcCycles)
			return rep
		}
	}
	return rep
}
