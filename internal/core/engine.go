package core

import (
	"fmt"

	"easydram/internal/clock"
)

// The two single-core drivers. What differs between them is the §6 policy
// itself, so they stay two loops over the shared channel-service path
// (channel.go):
//
//   - runScaled gates the processor in critical mode while requests are
//     outstanding, and a blocked load is consumed before the next
//     controller step;
//   - runUnscaled lets the processor follow a free-running wall clock, and
//     the controller steps before a not-yet-ready response is waited out.
//
// Running single core as the N=1 case of the multi-core merge loop instead
// is not byte-identical: the merge steps channels eagerly in key order,
// while these loops serve only when the processor is stuck.

// runScaled executes the workload under time scaling (Figure 5 mechanics).
// Each channel is its own modeled-MC service chain; the global MC counter —
// what gates the processor's allowance in critical mode — is kept at the
// maximum over channels, so channels that serve in parallel overlap in
// emulated time exactly as independent controllers would.
func (e *engine) runScaled() error {
	ts := e.ts
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}

	for {
		e.deliverMatured(&e.coreState, int64(ts.Proc()))

		if e.ckpt != nil && !e.ckpt.taken && ts.Proc() >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if release, ok := e.ready.Release(e.blockedOn); ok {
				ts.JumpProcTo(clock.Cycles(release))
				e.consume(e.blockedOn)
				e.blockedOn = 0
				continue
			}
			if err := e.smcStep(); err != nil {
				return err
			}
			continue
		}

		if e.fencing {
			if e.inflightLen() == 0 && e.ready.Len() == 0 {
				ts.JumpProcTo(clock.Cycles(e.fenceAt))
				e.maybeExitCritical()
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.ready.Len() > 0 {
				it := e.ready.Min()
				ts.JumpProcTo(clock.Cycles(it.release))
				e.consume(it.id)
				continue
			}
			if err := e.smcStep(); err != nil {
				return err
			}
			continue
		}

		allowance := ts.ProcAllowance()
		if allowance == 0 {
			if err := e.smcStep(); err != nil {
				return err
			}
			continue
		}
		// Batching contract (see cpu.Core.Step): cap the batch at the next
		// response release point so every decision inside the batch sees
		// the same delivered-response state as cycle-at-a-time stepping.
		// Matured releases were delivered above, so the cap is >= 1.
		if e.ready.Len() > 0 {
			if d := clock.Cycles(e.ready.Min().release) - ts.Proc(); d < allowance {
				allowance = d
			}
		}
		out := e.core.Step(ts.Proc(), allowance)
		if out.Finished {
			if err := e.core.Err(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			break
		}
		if out.Mark {
			e.marks = append(e.marks, ts.Proc())
		}
		ts.AdvanceProc(out.Cycles)
		if err := e.checkCap(ts.Proc()); err != nil {
			return err
		}
		for i := range out.Reqs {
			req := &out.Reqs[i]
			e.issue(req, e.sys.chanIndex(req.Addr), int64(ts.Proc()), false)
		}
		if len(out.Reqs) > 0 && !ts.Critical() {
			ts.EnterCritical()
		}
		if out.Fence {
			e.fencing = true
		}
		if out.WaitID != 0 {
			e.blockedOn = out.WaitID
		}
	}

	// Drain posted writebacks so wall-time accounting covers them.
	for e.inflightLen() > 0 {
		if err := e.smcStep(); err != nil {
			return err
		}
	}
	e.maybeExitCritical()
	return nil
}

// consume delivers one ready response the processor waited for (time
// scaling).
func (e *engine) consume(id uint64) {
	e.ready.Remove(id)
	e.core.Deliver(id)
	e.maybeExitCritical()
}

// runUnscaled executes the workload without time scaling. The processor
// follows the wall clock at its own frequency; each memory channel's SMC is
// a concurrently running serial resource whose busy point is its chain —
// with several channels their service chains advance independently, which
// is exactly the wall-time overlap a multi-channel module buys. Two
// sub-modes share this path:
//
//   - raw software MC (HardwareMC=false): the "EasyDRAM - No Time Scaling"
//     configuration; the full programmable-core latency is visible;
//   - hardware MC (HardwareMC=true): the §6 validation reference, where
//     each request costs only the modeled controller latency plus DRAM time.
func (e *engine) runUnscaled() error {
	procPeriod := e.cfg.ProcPhys.Period()

	proc := func() clock.Cycles { return clock.Cycles(e.wallNow / procPeriod) }
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}

	for {
		e.deliverMatured(&e.coreState, int64(e.wallNow))

		if e.ckpt != nil && !e.ckpt.taken && proc() >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if w, ok := e.ready.Release(e.blockedOn); ok {
				// The processor consumes the response at its next clock
				// edge (time-scaled release keys are integral cycles for
				// the same reason).
				if clock.PS(w) > e.wallNow {
					e.wallNow = clock.PS(e.cfg.ProcPhys.CyclesCeil(clock.PS(w))) * procPeriod
				}
				e.ready.Remove(e.blockedOn)
				e.core.Deliver(e.blockedOn)
				e.blockedOn = 0
				continue
			}
			if err := e.smcStep(); err != nil {
				return err
			}
			continue
		}

		if e.fencing {
			if e.inflightLen() == 0 && e.ready.Len() == 0 {
				if w := clock.PS(e.fenceAt); w > e.wallNow {
					e.wallNow = w
				}
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.inflightLen() > 0 {
				if err := e.smcStep(); err != nil {
					return err
				}
				continue
			}
			// Only ready responses remain: advance to the earliest.
			if earliest := clock.PS(e.ready.Min().release); earliest > e.wallNow {
				e.wallNow = earliest
			}
			continue
		}

		// Batching contract (see cpu.Core.Step): cap the batch at the next
		// response's delivery edge — the first processor clock edge at or
		// past its wall release — so batched decisions see the same
		// delivered-response state as cycle-at-a-time stepping. Matured
		// releases were delivered above, so the cap is >= 1.
		budget := clock.Cycles(0)
		if e.ready.Len() > 0 {
			rel := clock.PS(e.ready.Min().release)
			budget = clock.Cycles((rel - e.wallNow + procPeriod - 1) / procPeriod)
		}
		out := e.core.Step(proc(), budget)
		if out.Finished {
			if err := e.core.Err(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			break
		}
		if out.Mark {
			e.marks = append(e.marks, proc())
		}
		e.wallNow += clock.PS(out.Cycles) * procPeriod
		if err := e.checkCap(proc()); err != nil {
			return err
		}
		for i := range out.Reqs {
			req := &out.Reqs[i]
			e.issue(req, e.sys.chanIndex(req.Addr), int64(e.wallNow), true)
		}
		if out.Fence {
			e.fencing = true
		}
		if out.WaitID != 0 {
			e.blockedOn = out.WaitID
		}
	}

	e.procCycles = proc()
	// Drain remaining posted writebacks for wall-time accounting.
	for e.inflightLen() > 0 {
		if err := e.smcStep(); err != nil {
			return err
		}
	}
	e.finishWall()
	return nil
}

// finishWall sets the run's final FPGA cycle count without time scaling:
// wall time covers the processor and every channel's service chain.
func (e *engine) finishWall() {
	final := e.wallNow
	for _, free := range e.chain {
		final = max(final, free)
	}
	e.globalFinal = e.cfg.FPGA.CyclesCeil(final)
}
