// Package timescale implements EasyDRAM's time-scaling counters (§4.3).
//
// Time scaling lets each hardware component be *emulated* at a different
// clock frequency than it physically runs at on the FPGA. Three counters
// track progress:
//
//   - Proc: the processor-domain emulation point, in emulated processor
//     cycles. All processors share it.
//   - MC: the memory-controller emulation point, also expressed in emulated
//     processor cycles so the two domains are directly comparable.
//   - Global: FPGA clock cycles since power-on (wall time on the board).
//
// Invariants (property-tested in this package and enforced by the engine):
//
//  1. While the SMC is in critical mode, the processor cannot *start* new
//     work past MC (individual operations are atomic and may overshoot;
//     consuming a tagged response may jump past MC by the pipelined
//     latency tail).
//  2. A response tagged with release cycle R is never consumed at Proc < R.
//  3. Counters only move forward.
//
// With time scaling disabled the processor simply follows the FPGA wall
// clock at its own frequency, which exposes the raw software-memory-
// controller latency to the processor — the PiDRAM-style distortion the
// paper quantifies.
package timescale

import (
	"fmt"

	"easydram/internal/clock"
)

// Counters is the time-scaling counter file plus the clock configuration
// needed to convert between domains.
type Counters struct {
	// FPGA is the FPGA fabric clock (Global counts its cycles).
	FPGA clock.Clock
	// ProcPhys is the physical clock the processor domain runs at on the
	// FPGA (e.g. 100 MHz).
	ProcPhys clock.Clock
	// ProcEmul is the clock the processor is emulated at (e.g. 1.43 GHz).
	// With time scaling disabled, ProcEmul must equal ProcPhys.
	ProcEmul clock.Clock
	// Scaling reports whether time scaling is enabled.
	Scaling bool

	proc   clock.Cycles
	global clock.Cycles
	// mcPS is the memory-controller service point in exact picoseconds of
	// emulated time; MC() exposes it in emulated processor cycles.
	mcPS     clock.PS
	critical bool

	// residual supports the non-scaled AdvanceWall conversion.
	residual clock.PS
}

// New returns counters for the given clock configuration.
func New(fpga, procPhys, procEmul clock.Clock, scaling bool) (*Counters, error) {
	if !fpga.Valid() || !procPhys.Valid() || !procEmul.Valid() {
		return nil, fmt.Errorf("timescale: all clocks must be configured")
	}
	if !scaling && procPhys.Period() != procEmul.Period() {
		return nil, fmt.Errorf("timescale: without scaling the emulated clock (%v) must equal the physical clock (%v)",
			procEmul, procPhys)
	}
	return &Counters{FPGA: fpga, ProcPhys: procPhys, ProcEmul: procEmul, Scaling: scaling}, nil
}

// Proc returns the processor cycle counter (emulated cycles).
func (c *Counters) Proc() clock.Cycles { return c.proc }

// MC returns the memory-controller cycle counter (in emulated processor
// cycles).
func (c *Counters) MC() clock.Cycles { return c.ProcEmul.CyclesFloor(c.mcPS) }

// MCTime returns the memory-controller service point in exact picoseconds
// of emulated time (the value MC() floors to cycles).
func (c *Counters) MCTime() clock.PS { return c.mcPS }

// Global returns the FPGA cycle counter.
func (c *Counters) Global() clock.Cycles { return c.global }

// Critical reports whether the SMC holds the processor counter locked.
func (c *Counters) Critical() bool { return c.critical }

// EnterCritical locks the processor domain to the MC counter.
func (c *Counters) EnterCritical() { c.critical = true }

// ExitCritical releases the lock. Outside critical mode the counters
// synchronize: the processor counter catches up to MC as it free-runs.
func (c *Counters) ExitCritical() { c.critical = false }

// ProcAllowance reports how many emulated processor cycles the processor may
// advance right now. Outside critical mode the processor free-runs
// (unbounded, reported as a large budget); inside critical mode it may only
// advance up to MC.
func (c *Counters) ProcAllowance() clock.Cycles {
	if !c.critical {
		return 1 << 62
	}
	mc := c.MC()
	if mc <= c.proc {
		return 0
	}
	return mc - c.proc
}

// AdvanceProc moves the processor counter forward n cycles of execution.
// The FPGA global counter advances by the wall time those cycles take at
// the processor's physical clock.
//
// The MC counter does NOT follow the processor: it is the memory
// controller's service clock — "the emulation point up to which the
// controller has worked". While the controller idles it stays behind, so
// background work (refresh) is correctly backdated to the idle period;
// serving a request lifts it to the request's arrival (RaiseMC).
//
// In critical mode the engine budgets advances with ProcAllowance, but an
// individual operation is atomic and may overshoot MC by its own cost;
// the processor just cannot *start* new work while at or past MC.
func (c *Counters) AdvanceProc(n clock.Cycles) {
	if n < 0 {
		panic(fmt.Sprintf("timescale: negative processor advance %d", n))
	}
	c.proc += n
	c.global += c.FPGA.CyclesCeil(c.ProcPhys.ToTime(n))
}

// JumpProcTo moves the processor counter directly to cycle target (a
// response release point). Release tags may exceed the MC counter by the
// pipelined tail of a request's service latency, so — unlike AdvanceProc —
// JumpProcTo is allowed to pass MC even in critical mode.
func (c *Counters) JumpProcTo(target clock.Cycles) {
	if target <= c.proc {
		return
	}
	n := target - c.proc
	c.proc = target
	c.global += c.FPGA.CyclesCeil(c.ProcPhys.ToTime(n))
}

// RaiseMC lifts the MC service point to the given emulated processor cycle
// if it is behind (service of a request cannot start before the request
// arrived).
func (c *Counters) RaiseMC(target clock.Cycles) {
	if t := c.ProcEmul.ToTime(target); c.mcPS < t {
		c.mcPS = t
	}
}

// RaiseMCTime lifts the MC service point to the given exact emulated time
// if it is behind. Multi-channel engines keep one modeled-MC chain per
// channel and reflect the maximum into the shared counter through this
// method, so processor allowance tracks the memory system's overall
// progress while per-channel chains overlap.
func (c *Counters) RaiseMCTime(t clock.PS) {
	if c.mcPS < t {
		c.mcPS = t
	}
}

// AdvanceMCModeled credits the MC service point with a modeled duration
// (controller decision latency plus DRAM time) in picoseconds of emulated
// time, exactly. Returns the new MC value in cycles.
func (c *Counters) AdvanceMCModeled(d clock.PS) clock.Cycles {
	if d < 0 {
		panic(fmt.Sprintf("timescale: negative MC advance %v", d))
	}
	c.mcPS += d
	return c.MC()
}

// ServeModeled performs one service on the MC resource: it starts at
// max(service point, the arrival cycle), occupies the resource for
// occupancy picoseconds, and returns the release tag — the processor cycle
// at which the response (start + latency later) may be consumed. This is
// the exact counterpart of the reference engine's wall-clock service math,
// which is what makes the §6 validation agree to sub-0.1%.
func (c *Counters) ServeModeled(arrival clock.Cycles, occupancy, latency clock.PS) clock.Cycles {
	if occupancy < 0 || latency < 0 {
		panic(fmt.Sprintf("timescale: negative service (occ=%v lat=%v)", occupancy, latency))
	}
	start := c.mcPS
	if t := c.ProcEmul.ToTime(arrival); t > start {
		start = t
	}
	c.mcPS = start + occupancy
	if latency < occupancy {
		latency = occupancy
	}
	return c.ProcEmul.CyclesCeil(start + latency)
}

// AddGlobal credits the FPGA global counter with already-converted FPGA
// cycles. The engine's shard merge uses it to apply a worker's recorded
// wall charges: each AdvanceWall-equivalent charge took its per-call cycle
// ceiling when it was recorded, so applying the summed cycles is exact.
// Only meaningful with time scaling (the processor is clock-gated through
// the charged period, so no other counter moves).
func (c *Counters) AddGlobal(n clock.Cycles) {
	if n < 0 {
		panic(fmt.Sprintf("timescale: negative global credit %d", n))
	}
	c.global += n
}

// AdvanceWall charges FPGA wall time consumed by the SMC or DRAM Bender.
// With time scaling the processor is clock-gated during this period (its
// counter does not move). Without time scaling the processor's clock keeps
// ticking through the wall time, so the processor counter advances too —
// the raw latency becomes visible to the emulated system.
func (c *Counters) AdvanceWall(d clock.PS) {
	if d < 0 {
		panic(fmt.Sprintf("timescale: negative wall advance %v", d))
	}
	c.global += c.FPGA.CyclesCeil(d)
	if !c.Scaling {
		n := c.ProcPhys.CyclesFloor(d + c.residual)
		c.residual = d + c.residual - c.ProcPhys.ToTime(n)
		c.proc += n
		c.mcPS = c.ProcPhys.ToTime(c.proc)
	}
}

// WallTime reports the FPGA wall-clock time elapsed since power-on.
func (c *Counters) WallTime() clock.PS { return c.FPGA.ToTime(c.global) }

// EmulatedTime reports the emulated-system time at the processor's emulation
// point.
func (c *Counters) EmulatedTime() clock.PS { return c.ProcEmul.ToTime(c.proc) }

func (c *Counters) String() string {
	return fmt.Sprintf("proc=%d mc=%d global=%d critical=%v", c.proc, c.MC(), c.global, c.critical)
}
