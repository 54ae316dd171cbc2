// Package core is EasyDRAM's emulation engine — the paper's primary
// contribution. It couples the processor model, the EasyTile hardware
// buffers, the software memory controller, DRAM Bender, and the DRAM chip
// model, and advances system state with the time-scaling mechanics of
// Figures 5 and 6:
//
//   - processors are clock-gated while any memory request is outstanding;
//   - the SMC enters critical mode, locks the processor counter, and
//     advances the memory-controller counter by the *modeled* service time
//     (controller decision latency + DRAM time);
//   - responses carry a release tag; a processor never consumes a response
//     before its release cycle;
//   - processors replay the "missing" time-scaled duration as the MC
//     counter advances, issuing any requests the real system would have.
//
// The engine also runs in two non-scaled modes: the raw software-MC mode
// (PiDRAM-style, the paper's "EasyDRAM - No Time Scaling"), in which the
// SMC's real latency is visible to the processor; and the hardware-MC
// reference mode used to validate time scaling (§6).
//
// # Event-queue architecture
//
// The engine's inner loop is event-driven: each iteration either advances
// the processor or performs one SMC step, and both need the earliest
// pending event. Ready responses live in a slice sorted by release point
// (releaseQueue): min-peek and delivery read its front, and the lookup of
// the response a blocked processor waits on scans a queue bounded by the
// core's outstanding misses. Unserved requests additionally sit in an
// issue-order FIFO of arrival keys (arrivalRing); arrivals are monotone, so
// the earliest live arrival — the refresh accounting horizon — is read off
// the head in amortised O(1). See events.go. Every engine loop shares the
// structures; keys are emulated processor cycles with time scaling and wall
// picoseconds without (see channel.go).
package core

import (
	"fmt"

	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/cpu"
	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/smc"
	"easydram/internal/snapshot"
	"easydram/internal/tile"
	"easydram/internal/timescale"
	"easydram/internal/workload"
)

// Config assembles one emulated system.
type Config struct {
	// Scaling selects time-scaled emulation. When false the processor
	// follows the FPGA wall clock at its own frequency.
	Scaling bool
	// HardwareMC zeroes the software-memory-controller cost (an RTL
	// controller): the §6 validation reference configuration.
	HardwareMC bool

	// FPGA is the fabric clock; ProcPhys is the physical clock the
	// processor domain runs at on the FPGA.
	FPGA     clock.Clock
	ProcPhys clock.Clock

	// CPU configures the core model (its Clock field is the emulated
	// processor clock).
	CPU  cpu.Config
	Hier cache.HierConfig
	DRAM dram.Config

	Costs     tile.CostModel
	Scheduler smc.Scheduler
	// Policy selects the controller's row-buffer management.
	Policy smc.PagePolicy
	// TRCD is the optional reduced-tRCD provider (§8).
	TRCD smc.TRCDProvider

	// ModeledCtrlLatency is the modeled hardware memory controller's
	// per-request decision latency in the target system.
	ModeledCtrlLatency clock.PS

	// ShardWorkers does nothing: every run serves its channels on one
	// serial path.
	//
	// Deprecated: it remains only because the host benchmark in bench/
	// still sets it; ROADMAP item 3 deletes it.
	ShardWorkers int

	// Cores selects the number of emulated host cores. 0 or 1 models the
	// paper's single-core host through the unchanged engine (bit-identical
	// to the pre-multicore engine, golden-pinned). Above 1, the system
	// models N cores with private L1s behind a shared L2 competing for the
	// per-channel controllers; runs take one workload stream per core via
	// RunStreams (see multicore.go). Multi-core runs reject checkpoints.
	Cores int

	// Topology selects the module organisation: independent channels, each
	// with its own controller instance and Bender pipeline, and ranks
	// sharing each channel's bus. The zero value normalises to the paper's
	// single-channel, single-rank module, which is bit-identical to the
	// pre-topology engine (pinned by the golden cycle-count tests).
	Topology dram.Topology

	RefreshEnabled bool

	// Faults configures fault injection across the stack: chip-level disturb
	// /transient/stuck-at faults (wired into every rank's DRAM model), host-
	// link corruption at the tile seam, and the SMC's verify-and-retry
	// recovery path. The zero value injects nothing and leaves every hot path
	// on its fault-free branch — such a system is bit-identical to one built
	// before this knob existed (pinned by the golden cycle-count tests).
	Faults fault.Config
	// Mitigation selects the per-channel RowHammer mitigation policy the SMC
	// runs (each channel gets its own instance, seeded per channel).
	Mitigation fault.MitigationConfig

	// MaxProcCycles aborts runs that exceed this many emulated processor
	// cycles (safety net; 0 means no limit).
	MaxProcCycles clock.Cycles
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.FPGA.Valid() || !c.ProcPhys.Valid() {
		return fmt.Errorf("core: FPGA and processor physical clocks must be set")
	}
	if err := c.CPU.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if !c.Scaling && c.CPU.Clock.Period() != c.ProcPhys.Period() {
		return fmt.Errorf("core: without time scaling the emulated clock (%v) must equal the physical clock (%v)",
			c.CPU.Clock, c.ProcPhys)
	}
	if c.MaxProcCycles < 0 {
		return fmt.Errorf("core: max processor cycles must be non-negative (0 = no cap), got %d", c.MaxProcCycles)
	}
	if c.ModeledCtrlLatency < 0 {
		return fmt.Errorf("core: modeled controller latency must be non-negative")
	}
	if c.Policy != smc.OpenPage && c.Policy != smc.ClosedPage {
		return fmt.Errorf("core: unknown page policy %d (want open or closed)", c.Policy)
	}
	if c.Cores < 0 || c.Cores > 64 {
		return fmt.Errorf("core: cores must be in [0, 64], got %d", c.Cores)
	}
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Mitigation.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Result reports one workload run.
type Result struct {
	// ProcCycles is the workload's execution time in emulated processor
	// cycles — the paper's primary metric.
	ProcCycles clock.Cycles
	// EmulatedTime is ProcCycles converted to the emulated clock.
	EmulatedTime clock.PS
	// WallTime is the FPGA wall-clock time the emulation occupied and
	// GlobalCycles the same in FPGA cycles (Figure 14's denominator).
	WallTime     clock.PS
	GlobalCycles clock.Cycles
	// SimSpeedMHz is emulated processor cycles per FPGA wall second.
	SimSpeedMHz float64

	// Marks holds the processor cycle counts recorded at each OpMark, in
	// order. Workloads bracket their measured region with two marks.
	Marks []clock.Cycles

	// CPU and L1 aggregate across cores in multi-core runs (the per-core
	// breakdown lives in PerCore); L2 is the shared cache.
	CPU  cpu.Stats
	L1   cache.Stats
	L2   cache.Stats
	Ctrl smc.ControllerStats
	Chip dram.Stats
	Tile tile.Stats

	// PerCore holds each emulated core's share of a multi-core run, in
	// core order. Nil for single-core runs.
	PerCore []CoreResult
}

// CoreResult is one emulated core's share of a multi-core run.
type CoreResult struct {
	// ProcCycles is the cycle count at which this core finished its stream
	// (its completion time under contention).
	ProcCycles clock.Cycles
	// Marks holds the core's OpMark cycle counts, in order.
	Marks []clock.Cycles
	// CPU is the core's instruction/stall accounting; L1 its private cache.
	CPU cpu.Stats
	L1  cache.Stats
}

// IPC reports the core's instructions per cycle over its completion time.
func (c CoreResult) IPC() float64 {
	if c.ProcCycles == 0 {
		return 0
	}
	return float64(c.CPU.Instructions) / float64(c.ProcCycles)
}

// Window reports the measured region in emulated processor cycles: the span
// between the last two marks, or the whole run when fewer than two marks
// were recorded.
func (r Result) Window() clock.Cycles {
	if n := len(r.Marks); n >= 2 {
		return r.Marks[n-1] - r.Marks[n-2]
	}
	return r.ProcCycles
}

// MPKI reports last-level-cache misses per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.CPU.Instructions == 0 {
		return 0
	}
	misses := r.CPU.MemReads + r.CPU.MemFills
	return 1000 * float64(misses) / float64(r.CPU.Instructions)
}

// sysChannel is one memory channel's stack: the module (per-rank chips on a
// shared bus), the EasyTile driving it, the channel's own software memory
// controller (its request table and scheduler instance), and the execution
// environment the engine steps it with.
type sysChannel struct {
	mod  *dram.Module
	tile *tile.Tile
	ctl  *smc.BaseController
	env  *smc.Env
}

// System is a fully assembled emulated system. Build one per run.
type System struct {
	cfg  Config
	topo dram.Topology
	// hier is the single-core cache hierarchy, built only when
	// cfg.Cores <= 1. mhier is the multi-core fabric (private L1s, shared
	// L2), built only when cfg.Cores > 1: every single-core entry rejects a
	// multi-core system, so one of the two stays nil.
	hier   *cache.Hierarchy
	mhier  *cache.MultiHierarchy
	chans  []sysChannel
	mapper *smc.TopologyMapper

	// hostReqID numbers host-driven characterization requests (see host.go).
	// Per-system so concurrently running systems stay independent.
	hostReqID uint64

	// settleBatches/settleDelivered hold the most recent run's
	// response-settlement counters (see SettleStats).
	settleBatches   int64
	settleDelivered int64
}

// SettleStats reports the response-settlement counters of the most recent
// run: how many nonzero drains of matured responses the engine performed
// (batches) and how many responses those drains delivered in total
// (delivered). delivered/batches is the mean settle batch length. Host-side
// telemetry only; the counters never feed emulated time.
func (s *System) SettleStats() (batches, delivered int64) {
	return s.settleBatches, s.settleDelivered
}

// ShardStats always reports (0, 0): channel service has no host-parallel
// path.
//
// Deprecated: it remains only because the host benchmark in bench/ still
// reads it; ROADMAP item 3 deletes it.
func (s *System) ShardStats() (rounds, steps int64) { return 0, 0 }

// hostReqIDBase is the first host-driven request ID. It sits far above any
// CPU-issued ID (those start at 1 and stay dense), so the two ID spaces
// never collide.
const hostReqIDBase = 1 << 48

// channelScheduler resolves the scheduler instance channel ch runs:
// channel 0 uses cfg.Scheduler as configured; further channels clone
// stateful policies (smc.ChannelScheduler) and share stateless ones.
func channelScheduler(s smc.Scheduler, ch int) (smc.Scheduler, error) {
	if ch == 0 || s == nil {
		return s, nil
	}
	if sc, ok := s.(smc.ChannelScheduler); ok {
		return sc.CloneForChannel(), nil
	}
	if smc.Stateless(s) {
		return s, nil // safe to share across channels
	}
	return nil, fmt.Errorf("core: scheduler %q is stateful and must implement smc.ChannelScheduler for multi-channel topologies", s.Name())
}

// NewSystem assembles a system from cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology.Normalize()
	banksPerRank := cfg.DRAM.BankGroups * cfg.DRAM.BanksPerGroup
	mapper, err := smc.NewTopologyMapper(topo, banksPerRank, cfg.DRAM.ColsPerRow)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &System{
		cfg:       cfg,
		topo:      topo,
		mapper:    mapper,
		hostReqID: hostReqIDBase,
	}
	if cfg.Cores > 1 {
		s.mhier, err = cache.NewMultiHierarchy(cfg.Hier, cfg.Cores)
	} else {
		s.hier, err = cache.NewHierarchy(cfg.Hier)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dramCfg := cfg.DRAM
	dramCfg.Faults = cfg.Faults.Chip
	for c := 0; c < topo.Channels; c++ {
		mod, err := dram.NewModule(dramCfg, topo.Ranks, c*topo.Ranks)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		sched, err := channelScheduler(cfg.Scheduler, c)
		if err != nil {
			return nil, err
		}
		// Fault seams are seeded per channel off the DRAM seed so a fixed
		// config reproduces the same fault sequence at any worker count, and
		// channels never mirror each other's faults.
		chanSeed := cfg.DRAM.Seed + uint64(c)*0x9e3779b97f4a7c15
		mit, err := fault.NewMitigator(cfg.Mitigation, cfg.DRAM.RowsPerBank, c)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ctl, err := smc.NewBaseController(smc.Config{
			Mapper:         mapper,
			Scheduler:      sched,
			TRCD:           cfg.TRCD,
			RefreshEnabled: cfg.RefreshEnabled,
			Policy:         cfg.Policy,
			Ranks:          topo.Ranks,
			Recovery:       cfg.Faults.Recovery,
			Mitigation:     mit,
			RowsPerBank:    cfg.DRAM.RowsPerBank,
			QuarantineSeed: chanSeed,
		}, mod.Timing(), mod.Banks())
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		t := tile.NewDevice(mod.Device(), cfg.Costs)
		if cfg.Faults.Link.Enabled() {
			t.SetFaultLink(fault.NewLinkModel(cfg.Faults.Link, chanSeed))
		}
		s.chans = append(s.chans, sysChannel{mod: mod, tile: t, ctl: ctl, env: smc.NewEnv(t)})
	}
	return s, nil
}

// Topology reports the normalised module topology the system models.
func (s *System) Topology() dram.Topology { return s.topo }

// Config returns a copy of the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Chip exposes the DRAM model of channel 0, rank 0 (profiling tools use it
// read-only; the characterization helpers target the default topology).
func (s *System) Chip() *dram.Chip { return s.chans[0].mod.Rank(0) }

// Module exposes channel ch's module (per-rank chip models).
func (s *System) Module(ch int) *dram.Module { return s.chans[ch].mod }

// PeekLine copies the stored contents of a (as decoded by Mapper) into dst
// without issuing any command, routing to the owning channel and rank.
// False when data tracking is off. Host-side test/debug helper.
func (s *System) PeekLine(a dram.Addr, dst []byte) bool {
	return s.chans[a.Chan].mod.PeekLine(a, dst)
}

// PokeLine stores src at a without issuing any command, routing to the
// owning channel and rank. Host-side test/debug helper.
func (s *System) PokeLine(a dram.Addr, src []byte) bool {
	return s.chans[a.Chan].mod.PokeLine(a, src)
}

// Mapper exposes the physical-to-DRAM address mapping in use.
func (s *System) Mapper() smc.Mapper { return s.mapper }

// chanIndex routes a physical address to its owning channel.
func (s *System) chanIndex(pa uint64) int {
	if len(s.chans) == 1 {
		return 0
	}
	return s.mapper.Map(pa).Chan
}

// pending tracks one in-flight request. The owning channel is not stored:
// channel routing is resolved at issue time (per-channel staged lists,
// arrival rings, and tile FIFOs), and settle paths read responses from the
// channel env they stepped.
type pending struct {
	posted bool
	// at is the request's arrival key: the processor cycle of issue under
	// time scaling, the wall picosecond of issue otherwise.
	at int64
}

// stagedReq is one issued-but-not-arrived request: its slot in the tile's
// request slab plus its ID (its arrival key lives in the in-flight table).
type stagedReq struct {
	slot tile.ReqSlot
	id   uint64
}

// Run executes the workload stream to completion and returns the result.
// The stream is closed before Run returns. Multi-core systems need one
// stream per core; use RunStreams.
func (s *System) Run(strm workload.Stream) (Result, error) {
	if err := rejectNilStreams(strm); err != nil {
		return Result{}, err
	}
	if s.cfg.Cores > 1 {
		strm.Close()
		return Result{}, fmt.Errorf("core: system is configured with %d cores; use RunStreams with one stream per core", s.cfg.Cores)
	}
	return s.run(strm, nil, nil)
}

// RunStreams executes one workload stream per emulated core to completion
// and returns the combined result (Result.PerCore carries the per-core
// breakdown). The number of streams must match the configured core count;
// with one core it is equivalent to Run. All streams are closed before
// RunStreams returns.
func (s *System) RunStreams(strms []workload.Stream) (Result, error) {
	if err := rejectNilStreams(strms...); err != nil {
		return Result{}, err
	}
	want := s.cfg.Cores
	if want < 1 {
		want = 1
	}
	if len(strms) != want {
		for _, st := range strms {
			st.Close()
		}
		return Result{}, fmt.Errorf("core: RunStreams needs %d streams (one per core), got %d", want, len(strms))
	}
	if want == 1 {
		return s.run(strms[0], nil, nil)
	}
	return s.runMulti(strms)
}

// rejectNilStreams returns an error naming the first nil stream, after
// closing every other one, or nil when no stream is nil. Every Run entry
// checks its streams before it builds anything.
func rejectNilStreams(strms ...workload.Stream) error {
	i := -1
	for j, st := range strms {
		if st == nil {
			i = j
			break
		}
	}
	if i < 0 {
		return nil
	}
	for _, st := range strms {
		if st != nil {
			st.Close()
		}
	}
	return fmt.Errorf("core: stream %d of %d is nil", i, len(strms))
}

// run is the common body behind Run, RunCheckpoint, and RunRestored.
func (s *System) run(strm workload.Stream, ck *ckptReq, restore *snapshot.Reader) (Result, error) {
	defer strm.Close()
	core, err := cpu.New(s.cfg.CPU, s.hier, strm)
	if err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	e, err := s.newEngine()
	if err != nil {
		return Result{}, err
	}
	e.core = core
	e.ckpt, e.restore = ck, restore
	return s.finish(e, e.runSingle())
}

// newEngine assembles the engine state every loop shares.
func (s *System) newEngine() (*engine, error) {
	nch := len(s.chans)
	e := &engine{
		cfg:           s.cfg,
		sys:           s,
		inflight:      make([]slotRing, nch),
		trackArrivals: s.cfg.RefreshEnabled,
		chain:         make([]clock.PS, nch),
		arrivals:      make([]arrivalRing, nch),
		staged:        make([][]stagedReq, nch),
		keyPS:         1,
		unit:          int64(s.cfg.ProcPhys.Period()),
	}
	for i := range e.inflight {
		e.inflight[i] = newSlotRing()
	}
	if s.cfg.Scaling {
		ts, err := timescale.New(s.cfg.FPGA, s.cfg.ProcPhys, s.cfg.CPU.Clock)
		if err != nil {
			return nil, err
		}
		e.ts = ts
		e.keyPS = s.cfg.CPU.Clock.Period()
		e.unit = 1
	}
	return e, nil
}

// finish publishes a finished run's host-side counters and its result.
func (s *System) finish(e *engine, err error) (Result, error) {
	s.settleBatches, s.settleDelivered = e.settleBatches, e.settleDelivered
	if err != nil {
		return Result{}, err
	}
	return e.result(), nil
}

// coreState is one emulated core's delivery state: its produced responses
// keyed by release point, and what it waits on.
type coreState struct {
	core      *cpu.Core
	ready     releaseQueue
	blockedOn uint64
	fencing   bool
	marks     []clock.Cycles
}

type engine struct {
	cfg Config
	sys *System
	// coreState is the single-core run's core; unused (core nil) in a
	// multi-core run, whose cores each carry their own.
	coreState

	// multi, when non-nil, marks a multi-core run: the merge loop in
	// multicore.go drives the channels, and the settle paths route
	// responses to per-core queues instead of ready. See multicore.go.
	multi *mcEngine

	// ts holds the time-scaling counters (nil without time scaling).
	ts *timescale.Counters
	// keyPS is one event key in picoseconds: an emulated processor cycle
	// with time scaling, a picosecond without (see channel.go). unit is one
	// processor cycle in keys: 1 with time scaling, the processor period
	// without.
	keyPS clock.PS
	unit  int64

	// wallNow is the wall clock without time scaling (0 with it).
	wallNow clock.PS
	// chain is each channel's service chain: its modeled-MC service point
	// with time scaling (the global MC counter is kept at the maximum over
	// channels), its SMC-free wall point without. The channels are
	// independent serial resources, so their chains advance separately and
	// service overlaps.
	chain []clock.PS

	// inflight tracks outstanding requests in dense slot rings indexed by
	// request ID (IDs are sequential, so indexing replaces hashing), one
	// ring per owning channel.
	inflight []slotRing
	// arrivals mirrors inflight in issue order, one ring per channel
	// (monotone arrival keys); the head yields the channel's earliest live
	// arrival in amortised O(1). It feeds the refresh accounting horizon
	// only, so it is maintained (trackArrivals) only when refresh is
	// enabled.
	arrivals      []arrivalRing
	trackArrivals bool
	// staged holds issued requests not yet visible to their channel's
	// controller: the SMC only observes requests that have arrived by its
	// next decision point. Request bytes already live in the tile's slab;
	// staged carries slots, one list per channel. Single-core time scaling
	// issues straight to the tile instead (critical mode gates the
	// processor).
	staged [][]stagedReq

	// fenceAt is what a fence waits out, as an event key: the latest
	// response release with time scaling, the latest SMC completion
	// without. A field (not a loop local) so checkpoints can capture it.
	fenceAt int64

	// ckpt, when non-nil, requests a checkpoint at the first quiescent point
	// at or after ckpt.at emulated processor cycles; restore, when non-nil,
	// is a parsed checkpoint the engine loads before its first iteration.
	// See checkpoint.go.
	ckpt    *ckptReq
	restore *snapshot.Reader

	// settleBatches/settleDelivered count response settlement: each
	// nonzero drain of matured releases is one batch. Exposed through
	// System.SettleStats (not Result: the counters are host-side engine
	// telemetry, not emulated-system behaviour).
	settleBatches   int64
	settleDelivered int64

	procCycles  clock.Cycles // final, non-scaled mode
	globalFinal clock.Cycles
}

// extraModeled is the per-response modeled latency added by the engine on
// top of what the controller accounted: the modeled hardware controller's
// decision latency, charged only when a modeled controller stands in for
// the software one.
func (e *engine) extraModeled(nResponses int) clock.PS {
	if !e.cfg.Scaling && !e.cfg.HardwareMC {
		return 0
	}
	return e.cfg.ModeledCtrlLatency * clock.PS(nResponses)
}

func (e *engine) result() Result {
	var r Result
	if e.cfg.Scaling {
		r.ProcCycles = e.ts.Proc()
		r.EmulatedTime = e.cfg.CPU.Clock.ToTime(r.ProcCycles)
		r.GlobalCycles = e.ts.Global()
		r.WallTime = e.ts.WallTime()
	} else {
		r.ProcCycles = e.procCycles
		r.EmulatedTime = e.cfg.CPU.Clock.ToTime(r.ProcCycles)
		r.GlobalCycles = e.globalFinal
		r.WallTime = e.cfg.FPGA.ToTime(r.GlobalCycles)
	}
	if r.WallTime > 0 {
		r.SimSpeedMHz = float64(r.ProcCycles) / r.WallTime.Seconds() / 1e6
	}
	r.Marks = e.marks
	if e.multi != nil {
		for i, c := range e.multi.cores {
			cr := CoreResult{
				ProcCycles: c.procCycles,
				Marks:      c.marks,
				CPU:        c.core.Stats(),
				L1:         e.sys.mhier.L1Stats(i),
			}
			r.PerCore = append(r.PerCore, cr)
			r.CPU.Add(cr.CPU)
			r.L1.Add(cr.L1)
		}
		r.L2 = e.sys.mhier.L2Stats()
	} else {
		r.CPU = e.core.Stats()
		r.L1 = e.sys.hier.L1().Stats()
		r.L2 = e.sys.hier.L2().Stats()
	}
	for i := range e.sys.chans {
		c := &e.sys.chans[i]
		r.Ctrl.Accumulate(c.ctl.Stats())
		r.Chip.Accumulate(c.mod.Stats())
		r.Tile.Accumulate(c.tile.Stats())
	}
	return r
}

// inflightLen reports the total number of outstanding requests across all
// channels' rings.
func (e *engine) inflightLen() int {
	n := 0
	for i := range e.inflight {
		n += e.inflight[i].Len()
	}
	return n
}

// earliestArrival reports the smallest arrival key among channel ch's
// unserved requests (amortised O(1): completed heads are skipped off the
// issue-order ring).
func (e *engine) earliestArrival(ch int) (int64, bool) {
	ring := &e.arrivals[ch]
	for ring.head < len(ring.buf) {
		ent := ring.buf[ring.head]
		if e.inflight[ch].Contains(ent.id) {
			return ent.key, true
		}
		ring.skipHead()
	}
	return 0, false
}

func (e *engine) checkCap(proc clock.Cycles) error {
	if e.cfg.MaxProcCycles > 0 && proc > e.cfg.MaxProcCycles {
		return fmt.Errorf("core: run exceeded %d emulated processor cycles", e.cfg.MaxProcCycles)
	}
	return nil
}
