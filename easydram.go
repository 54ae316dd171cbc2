// Package easydram is a software reproduction of EasyDRAM (Canpolat et al.,
// DSN 2025): an infrastructure for fast and accurate end-to-end evaluation
// of emerging DRAM techniques, built around a software-defined memory
// controller and the time-scaling emulation technique.
//
// The package is the public facade over the internal stack (DRAM chip model
// with process variation, DRAM Bender engine, EasyTile, software memory
// controller, time-scaling engine, processor and cache models). A typical
// session:
//
//	sys, err := easydram.NewSystem(easydram.TimeScaled())
//	if err != nil { ... }
//	res, err := sys.Run(easydram.NewKernel("touch", func(g *easydram.Gen) {
//		for i := 0; i < 1024; i++ {
//			g.Load(uint64(i) * 64)
//		}
//	}))
//	fmt.Println(res.ProcCycles, res.EmulatedTime)
package easydram

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
	"easydram/internal/ramulator"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// Kernel is a named workload: a generator of processor operations.
type Kernel = workload.Kernel

// Gen is the emission context handed to kernel bodies.
type Gen = workload.Gen

// Result reports one workload run (execution time in emulated processor
// cycles, FPGA wall time, per-component statistics).
type Result = core.Result

// PS is simulated time in picoseconds.
type PS = clock.PS

// Cycles counts clock cycles.
type Cycles = clock.Cycles

// NewKernel wraps a kernel body under a name.
func NewKernel(name string, body func(*Gen)) Kernel {
	return Kernel{Name: name, Body: body}
}

// Option configures a System.
type Option func(*core.Config)

// TimeScaled selects the paper's headline configuration: a Cortex-A57-class
// out-of-order core emulated at 1.43 GHz over a 100 MHz FPGA fabric via
// time scaling, a 512 KiB L2, and DDR4-1333.
func TimeScaled() Option {
	return func(cfg *core.Config) { *cfg = core.TimeScalingA57() }
}

// NoTimeScaling selects the PiDRAM-class configuration: a 50 MHz in-order
// core exposed to the software memory controller's real latency.
func NoTimeScaling() Option {
	return func(cfg *core.Config) { *cfg = core.NoTimeScaling() }
}

// ValidationPair returns the two §6 validation configurations: a 100 MHz
// processor time-scaled to 1 GHz, and the directly simulated 1 GHz
// reference.
func ValidationPair() (scaled, reference Option) {
	return func(cfg *core.Config) { *cfg = core.TimeScaling1GHz() },
		func(cfg *core.Config) { *cfg = core.Reference1GHz() }
}

// RamulatorBaseline selects the Ramulator 2.0-class software-simulator
// baseline (simple out-of-order core, ideal DRAM, no variation).
func RamulatorBaseline() Option {
	return func(cfg *core.Config) { *cfg = ramulator.Config(0) }
}

// WithSeed sets the DRAM process-variation seed.
func WithSeed(seed uint64) Option {
	return func(cfg *core.Config) { cfg.DRAM.Seed = seed }
}

// WithDataTracking enables the DRAM data store (needed for profiling and
// RowClone correctness checks; timing-only runs leave it off).
func WithDataTracking() Option {
	return func(cfg *core.Config) { cfg.DRAM.TrackData = true }
}

// WithScheduler selects the memory scheduling policy: "fr-fcfs" (default),
// "fcfs", or "bliss". An unknown name makes NewSystem fail.
func WithScheduler(name string) Option {
	return func(cfg *core.Config) {
		s, err := smc.NewScheduler(name)
		if err != nil {
			s = rejectedScheduler{err}
		}
		cfg.Scheduler = s
	}
}

// rejectedScheduler carries the error for a name smc.NewScheduler rejected
// from WithScheduler to NewSystem, which reports it: options cannot return
// errors. NewSystem never builds a system with it, so Pick is unreachable.
type rejectedScheduler struct{ err error }

func (r rejectedScheduler) Name() string                { return "rejected" }
func (r rejectedScheduler) Pick([]smc.Entry, []int) int { panic(r.err) }

// Scheduler is the pluggable memory-scheduling interface: Pick selects the
// next buffered request to serve. Implement it to run a custom policy on
// the software-defined memory controller; see examples/customscheduler.
type Scheduler = smc.Scheduler

// SchedEntry is one buffered request as schedulers see it: decoded DRAM
// coordinates plus an arrival sequence number. The table a scheduler sees
// is in arrival order (index 0 is the oldest, and Seq increases with the
// index), so a scan's first eligible entry is the oldest one.
// SchedEntry.IsAccess distinguishes plain accesses from technique
// requests.
type SchedEntry = smc.Entry

// ReqKind classifies a buffered request (SchedEntry.Kind).
type ReqKind = mem.Kind

// Request kinds a scheduler observes in the request table: plain accesses
// (ReqRead, ReqWrite, ReqWriteback) plus the technique kinds, which
// SchedEntry.IsAccess filters out.
const (
	// ReqRead is a demand cache-line fill.
	ReqRead = mem.Read
	// ReqWrite is a cache-line store reaching memory.
	ReqWrite = mem.Write
	// ReqWriteback is a posted dirty-line eviction.
	ReqWriteback = mem.Writeback
)

// WithCustomScheduler installs a user-provided scheduling policy.
func WithCustomScheduler(s Scheduler) Option {
	return func(cfg *core.Config) { cfg.Scheduler = s }
}

// WithRefresh toggles periodic refresh.
func WithRefresh(on bool) Option {
	return func(cfg *core.Config) { cfg.RefreshEnabled = on }
}

// WithTopology selects the module organisation: `channels` independent
// memory channels (each with its own software-memory-controller instance,
// request table, and DRAM Bender pipeline) and `ranks` ranks sharing each
// channel's bus (consecutive CAS commands to different ranks pay the
// rank-to-rank turnaround). Both must be powers of two; 1/1 — the default —
// is bit-identical to the paper's single-rank module. Physical addresses
// spread across channels at cache-line granularity unless WithInterleave
// overrides it.
func WithTopology(channels, ranks int) Option {
	return func(cfg *core.Config) {
		cfg.Topology.Channels = channels
		cfg.Topology.Ranks = ranks
	}
}

// WithInterleave selects the channel-interleaving granularity: "line"
// (default; consecutive cache lines rotate across channels) or "row" (each
// DRAM row's lines stay on one channel; consecutive rows rotate). Only
// meaningful with WithTopology channels > 1. An unknown name makes
// NewSystem fail (options cannot return errors, so the invalid value is
// carried into the topology and rejected by its validation).
func WithInterleave(name string) Option {
	return func(cfg *core.Config) {
		il, err := dram.ParseInterleave(name)
		if err != nil {
			cfg.Topology.Interleave = dram.Interleave(0xFF)
			return
		}
		cfg.Topology.Interleave = il
	}
}

// WithReducedTRCD installs a per-row tRCD provider built from the weak-row
// set (see System.ProfileWeakRows and WeakRowProfile.Provider); rows
// outside the set activate with the reduced tRCD.
func WithReducedTRCD(provider TRCDProvider) Option {
	return func(cfg *core.Config) {
		cfg.TRCD = func(a dram.Addr) clock.PS { return provider(a.Chan, a.Bank, a.Row) }
	}
}

// TRCDProvider returns the tRCD (in picoseconds) to activate (channel,
// bank, row) with; 0 selects the nominal value.
type TRCDProvider func(ch, bank, row int) PS

// WithPagePolicy selects row-buffer management: "open" (default) or
// "closed". An unknown name makes NewSystem fail (options cannot return
// errors, so the invalid value is carried into the configuration and
// rejected by its validation).
func WithPagePolicy(name string) Option {
	return func(cfg *core.Config) {
		switch name {
		case "", "open":
			cfg.Policy = smc.OpenPage
		case "closed":
			cfg.Policy = smc.ClosedPage
		default:
			cfg.Policy = smc.PagePolicy(0xFF)
		}
	}
}

// WithCores selects the emulated core count: n cores, each with a private
// L1 behind the shared L2, each running its own workload stream and
// contending for the software memory controller (see System.RunKernels).
// 0 or 1 — the default — is the single-core system, bit-identical to the
// paper's configuration. Multi-core systems are deterministic: the same
// configuration and kernels reproduce every counter exactly.
func WithCores(n int) Option {
	return func(cfg *core.Config) { cfg.Cores = n }
}

// Mix is a named multiprogram composition: one kernel per emulated core,
// each relocated into a private address window (see Mixes).
type Mix = workload.Mix

// Mixes returns the named multiprogram mixes the fairness sweep runs:
// "streaming" (all bandwidth hogs), "latency" (all pointer chases), and
// "mixed" (hogs plus a latency-sensitive chase).
func Mixes() []Mix { return workload.Mixes() }

// MixByName resolves a multiprogram mix by name.
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// WithPrefetcher enables the L2 next-line prefetcher.
func WithPrefetcher() Option {
	return func(cfg *core.Config) { cfg.CPU.NextLinePrefetch = true }
}

// WithMaxCycles caps runs at n emulated processor cycles.
func WithMaxCycles(n Cycles) Option {
	return func(cfg *core.Config) { cfg.MaxProcCycles = n }
}

// FaultConfig configures end-to-end fault injection: chip-level faults
// (activation-disturb bit flips, transient read corruption, stuck-at lines),
// host-link faults at the Bender seam (launch failures, corrupted or short
// readbacks), and the controller's verify-and-retry recovery path (bounded
// retries with exponential emulated-time backoff, quarantine + spare-row
// remap on give-up). All faults are drawn deterministically from the system
// seed: a fixed configuration reproduces the same fault sequence at any
// worker, channel, or rank count. The zero value injects nothing and leaves
// the system bit-identical to one without fault support.
type FaultConfig = fault.Config

// MitigationConfig selects the per-channel RowHammer mitigation policy the
// software memory controller runs: "para" (probabilistic adjacent-row
// refresh on every activation) or "trr" (per-row activation counters that
// refresh a row's neighbours when it crosses the target threshold). The
// zero value (or policy "none") runs no mitigation.
type MitigationConfig = fault.MitigationConfig

// DefaultFaults returns a moderate all-seams-on fault configuration
// (disturb thresholds in the thousands, 1e-4-class transient rates,
// recovery enabled) — a starting point for robustness studies.
func DefaultFaults() FaultConfig { return fault.DefaultConfig() }

// WithFaults installs a fault-injection configuration (see FaultConfig).
func WithFaults(fc FaultConfig) Option {
	return func(cfg *core.Config) { cfg.Faults = fc }
}

// WithMitigation installs a RowHammer mitigation policy by name: "none",
// "para", or "trr" (each channel's controller gets its own seeded
// instance). Unknown names are rejected by NewSystem.
func WithMitigation(policy string) Option {
	return func(cfg *core.Config) { cfg.Mitigation = fault.MitigationConfig{Policy: policy} }
}

// WithMitigationConfig installs a fully specified mitigation policy
// (probability, threshold, seed — see MitigationConfig).
func WithMitigationConfig(mc MitigationConfig) Option {
	return func(cfg *core.Config) { cfg.Mitigation = mc }
}

// System is an assembled emulated system.
type System struct {
	cfg core.Config
	sys *core.System
}

// NewSystem builds a system; with no options it is the TimeScaled
// configuration.
func NewSystem(opts ...Option) (*System, error) {
	cfg := core.TimeScalingA57()
	for _, o := range opts {
		o(&cfg)
	}
	if r, ok := cfg.Scheduler.(rejectedScheduler); ok {
		return nil, fmt.Errorf("easydram: %w", r.err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("easydram: %w", err)
	}
	return &System{cfg: cfg, sys: sys}, nil
}

// Run executes the kernel to completion. A System's DRAM and cache state
// persists across runs; build a fresh System for independent measurements.
func (s *System) Run(k Kernel) (Result, error) {
	res, err := s.sys.Run(k.Stream())
	if err != nil {
		return res, fmt.Errorf("easydram: %w", err)
	}
	return res, nil
}

// RunKernels executes one kernel per emulated core to completion on a
// multi-core system (WithCores): kernel i runs on core i, relocated into
// core i's private address window (the emulated fabric has no coherence
// protocol, so cores must not share lines — see the multi-core section of
// ARCHITECTURE.md). The kernel count must equal the configured core count.
// Result.PerCore carries each core's cycles, marks, and cache statistics;
// the top-level counters aggregate all cores.
func (s *System) RunKernels(ks []Kernel) (Result, error) {
	streams := make([]workload.Stream, len(ks))
	for i, k := range ks {
		streams[i] = workload.OffsetStream(k.Stream(), uint64(i)*workload.MixWindowBytes)
	}
	res, err := s.sys.RunStreams(streams)
	if err != nil {
		return res, fmt.Errorf("easydram: %w", err)
	}
	return res, nil
}

// RunMix executes a named multiprogram mix on a multi-core system: core i
// runs mix.KernelAt(i, n) in its own window, where n is the configured core
// count.
func (s *System) RunMix(m Mix) (Result, error) {
	n := s.cfg.Cores
	if n < 1 {
		n = 1
	}
	res, err := s.sys.RunStreams(m.Streams(n))
	if err != nil {
		return res, fmt.Errorf("easydram: %w", err)
	}
	return res, nil
}

// ProfileLine tests whether the cache line at physical address pa reads
// reliably at the given tRCD, using a host-driven §8.1 profiling request.
// Requires WithDataTracking. It is the per-line compatibility path; bulk
// characterization should use ProfileRow.
func (s *System) ProfileLine(pa uint64, rcd PS) (bool, error) {
	return s.sys.ProfileLine(pa, rcd)
}

// ProfileRow tests every cache line of the DRAM row containing pa at the
// given tRCD with a single whole-row profiling request — one host
// round-trip and one DRAM Bender program per row instead of one per line.
// It returns the number of leading lines that read reliably and whether
// the entire row passed. Requires WithDataTracking.
func (s *System) ProfileRow(pa uint64, rcd PS) (okLines int, ok bool, err error) {
	rowLines, ok, err := s.sys.ProfileRowStripe(pa, 1, rcd)
	if err != nil {
		return 0, false, err
	}
	return rowLines[0], ok, nil
}

// TestRowClone tests whether the row at src can be RowClone-copied onto the
// row at dst reliably (trials repetitions).
func (s *System) TestRowClone(src, dst uint64, trials int) (bool, error) {
	return s.sys.TestRowClone(src, dst, trials)
}

// RowBytes reports the DRAM row size of the modelled module.
func (s *System) RowBytes() int { return s.sys.Mapper().RowBytes() }

// MapAddr translates a physical address into DRAM coordinates.
func (s *System) MapAddr(pa uint64) (bank, row, col int) {
	a := s.sys.Mapper().Map(pa)
	return a.Bank, a.Row, a.Col
}

// Internal access for the technique helpers in this package.
func (s *System) internal() *core.System { return s.sys }

// Config returns a copy of the underlying configuration.
func (s *System) Config() core.Config { return s.cfg }
