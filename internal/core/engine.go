package core

import (
	"fmt"

	"easydram/internal/clock"
)

// runSingle drives every single-core run, with time scaling (Figure 5
// mechanics) or without. Three things differ between the modes, and they
// are the §6 policy itself:
//
//   - the clock: the timescale counters, or the free-running wall clock at
//     the processor's physical period (procKey, procCycle, advanceTo,
//     advanceCycles);
//   - critical-mode gating: with time scaling the processor may not run
//     past the modeled-MC counter while requests are outstanding, and it
//     issues straight to the tile; without it requests are staged and
//     become visible to the controller at their arrival;
//   - end-of-run accounting: without time scaling, wall time covers every
//     channel's busy chain (finishWall).
//
// Everything else is one loop over the shared channel-service path
// (channel.go), including one fence drain order: consume the earliest
// ready response, else step a controller. Without time scaling the order
// cannot be observed: nothing the controller reads depends on the
// processor's clock, and deliveries inside a fence commute.
//
// Running single core as the N=1 case of the multi-core merge loop instead
// is not byte-identical: the merge steps channels eagerly in key order,
// while this loop serves only when the processor is stuck.
func (e *engine) runSingle() error {
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}

	for {
		e.deliverMatured(&e.coreState, e.procKey())

		if e.ckpt != nil && !e.ckpt.taken && e.procCycle() >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if rel, ok := e.ready.Release(e.blockedOn); ok {
				// The processor consumes the response at its next clock
				// edge.
				e.advanceTo(e.cycles(rel) * e.unit)
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
				e.advanceTo(e.fenceAt)
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.ready.Len() > 0 {
				it := e.ready.Min()
				e.advanceTo(it.release)
				e.consume(it.id)
				continue
			}
			if err := e.smcStep(); err != nil {
				return err
			}
			continue
		}

		budget := clock.Cycles(0) // unlimited
		if e.ts != nil {
			if budget = e.ts.ProcAllowance(); budget == 0 {
				if err := e.smcStep(); err != nil {
					return err
				}
				continue
			}
		}
		// Batching contract (see cpu.Core.Step): cap the batch at the next
		// response's delivery edge — the first processor clock edge at or
		// past its release — so every decision inside the batch sees the
		// same delivered-response state as cycle-at-a-time stepping.
		// Matured releases were delivered above, so the cap is >= 1.
		if e.ready.Len() > 0 {
			if d := clock.Cycles(e.cycles(e.ready.Min().release - e.procKey())); budget == 0 || d < budget {
				budget = d
			}
		}
		out := e.core.Step(e.procCycle(), budget)
		if out.Finished {
			if err := e.core.Err(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			break
		}
		if out.Mark {
			e.marks = append(e.marks, e.procCycle())
		}
		e.advanceCycles(out.Cycles)
		if err := e.checkCap(e.procCycle()); err != nil {
			return err
		}
		for i := range out.Reqs {
			req := &out.Reqs[i]
			e.issue(req, e.sys.chanIndex(req.Addr), e.procKey(), e.ts == nil)
		}
		if e.ts != nil && len(out.Reqs) > 0 {
			e.ts.EnterCritical()
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
	if e.ts == nil {
		e.procCycles = e.procCycle()
		e.finishWall()
	}
	return nil
}

// procKey is the processor's position on the event-key grid.
func (e *engine) procKey() int64 {
	if e.ts != nil {
		return int64(e.ts.Proc())
	}
	return int64(e.wallNow)
}

// procCycle is the processor's position in whole emulated cycles.
func (e *engine) procCycle() clock.Cycles {
	if e.ts != nil {
		return e.ts.Proc()
	}
	return clock.Cycles(e.wallNow / clock.PS(e.unit))
}

// advanceTo moves the processor forward to key k; an earlier k is a no-op.
func (e *engine) advanceTo(k int64) {
	if e.ts != nil {
		e.ts.JumpProcTo(clock.Cycles(k))
	} else if clock.PS(k) > e.wallNow {
		e.wallNow = clock.PS(k)
	}
}

// advanceCycles moves the processor forward n cycles of execution.
func (e *engine) advanceCycles(n clock.Cycles) {
	if e.ts != nil {
		e.ts.AdvanceProc(n)
	} else {
		e.wallNow += clock.PS(n) * clock.PS(e.unit)
	}
}

// cycles converts the key span k >= 0 to whole processor cycles, rounding
// up. Under time scaling keys are cycles and the conversion is free.
func (e *engine) cycles(k int64) int64 {
	if e.unit == 1 {
		return k
	}
	return (k + e.unit - 1) / e.unit
}

// consume delivers one ready response the processor waited for.
func (e *engine) consume(id uint64) {
	e.ready.Remove(id)
	e.core.Deliver(id)
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
