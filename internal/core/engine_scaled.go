package core

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/timescale"
)

// runScaled executes the workload under time scaling (Figure 5 mechanics).
// With a multi-channel topology each channel is its own modeled-MC service
// chain (chanMC); the global MC counter — what gates the processor's
// allowance in critical mode — is kept at the maximum over channels, so
// channels that serve in parallel overlap in emulated time exactly as
// independent controllers would.
func (e *engine) runScaled() error {
	ts, err := timescale.New(e.cfg.FPGA, e.cfg.ProcPhys, e.cfg.CPU.Clock, true)
	if err != nil {
		return err
	}
	e.ts = ts
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}

	for {
		e.deliverMaturedScaled()

		if e.ckpt != nil && !e.ckpt.taken && ts.Proc() >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if release, ok := e.ready.Release(e.blockedOn); ok {
				ts.JumpProcTo(clock.Cycles(release))
				e.consumeScaled(e.blockedOn)
				e.blockedOn = 0
				// Batched settlement: every other response released by the
				// jumped-to processor point matures with the one just
				// consumed, so settle the whole batch here instead of
				// paying one loop iteration per response (the next
				// loop-top drain would deliver exactly these).
				e.deliverMaturedScaled()
				continue
			}
			if err := e.smcStepScaled(); err != nil {
				return err
			}
			continue
		}

		if e.fencing {
			if e.inflightLen() == 0 && e.ready.Len() == 0 {
				ts.JumpProcTo(e.maxRelease)
				e.maybeExitCritical()
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.ready.Len() > 0 {
				it := e.ready.Min()
				ts.JumpProcTo(clock.Cycles(it.release))
				e.consumeScaled(it.id)
				continue
			}
			if ran, err := e.shardRoundScaled(true); err != nil {
				return err
			} else if ran {
				continue
			}
			if err := e.smcStepScaled(); err != nil {
				return err
			}
			continue
		}

		allowance := ts.ProcAllowance()
		if allowance == 0 {
			if err := e.smcStepScaled(); err != nil {
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
			e.issueScaled(&out.Reqs[i])
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
		if ran, err := e.shardRoundScaled(false); err != nil {
			return err
		} else if ran {
			continue
		}
		if err := e.smcStepScaled(); err != nil {
			return err
		}
	}
	e.maybeExitCritical()
	return nil
}

// deliverMaturedScaled hands the core every ready response whose release
// point has been reached (in release order, O(log n) each). Each nonzero
// drain is one settle batch (ROADMAP item 4).
func (e *engine) deliverMaturedScaled() {
	proc := int64(e.ts.Proc())
	n := int64(0)
	for e.ready.Len() > 0 && e.ready.Min().release <= proc {
		it := e.ready.PopMin()
		e.core.Deliver(it.id)
		if e.blockedOn == it.id {
			e.blockedOn = 0
		}
		n++
	}
	if n > 0 {
		e.settleBatches++
		e.settleDelivered += n
	}
}

// consumeScaled delivers one ready response the processor waited for.
func (e *engine) consumeScaled(id uint64) {
	e.ready.Remove(id)
	e.core.Deliver(id)
	e.maybeExitCritical()
}

// issueScaled places a new request into its channel's EasyTile FIFO,
// tagging it with the current processor cycle and gating the processor
// domain. The request is copied into the tile's slab here, once; every
// later stage carries its slot.
func (e *engine) issueScaled(req *mem.Request) {
	req.Tag = e.ts.Proc()
	ch := e.sys.chanIndex(req.Addr)
	e.sys.chans[ch].tile.PushRequest(req)
	e.inflight[ch].Put(req.ID, pending{posted: req.Posted, tag: req.Tag})
	if e.trackArrivals {
		e.arrivals[ch].Push(req.ID, int64(req.Tag))
	}
	if !e.ts.Critical() {
		e.ts.EnterCritical()
	}
}

func (e *engine) maybeExitCritical() {
	if e.ts != nil && e.ts.Critical() && e.inflightLen() == 0 {
		e.ts.ExitCritical()
	}
}

// mcTimeOf reports channel ch's modeled-MC service point: with one channel
// it is the ts counters' exact MC time; with several it is the channel's
// own chain.
func (e *engine) mcTimeOf(ch int) clock.PS {
	if len(e.sys.chans) == 1 {
		return e.ts.MCTime()
	}
	return e.chanMC[ch]
}

// serveModeledChan is the multi-channel counterpart of
// timescale.Counters.ServeModeled: one service on channel ch's own MC
// chain, with the global MC counter lifted to the maximum over channels so
// processor allowance sees the memory system's overall progress. A shard
// worker (non-nil fx) must not touch the shared counter; chanMC is monotone
// per channel, so the merge's final RaiseMCTime of each channel's chain
// reproduces the maximum the per-step lifts would have reached.
func (e *engine) serveModeledChan(ch int, fx *chanFX, arrival clock.Cycles, occupancy, latency clock.PS) clock.Cycles {
	start := e.chanMC[ch]
	if t := e.ts.ProcEmul.ToTime(arrival); t > start {
		start = t
	}
	e.chanMC[ch] = start + occupancy
	if fx == nil {
		e.ts.RaiseMCTime(e.chanMC[ch])
	}
	if latency < occupancy {
		latency = occupancy
	}
	return e.ts.ProcEmul.CyclesCeil(start + latency)
}

// chargeWallScaled charges FPGA wall time consumed by the SMC or Bender.
// Serial path: straight to the counters. Shard worker: recorded as FPGA
// cycles (the per-call ceiling AdvanceWall would take) and credited at
// merge — with time scaling the charge only moves the global counter, a
// commutative sum.
func (e *engine) chargeWallScaled(fx *chanFX, d clock.PS) {
	if fx == nil {
		e.ts.AdvanceWall(d)
		return
	}
	fx.global += e.cfg.FPGA.CyclesCeil(d)
}

// noteRelease tracks the run's maximum response release point (what a
// fence jumps to). Commutative max, so workers record per-channel maxima.
func (e *engine) noteRelease(fx *chanFX, release clock.Cycles) {
	if fx == nil {
		if release > e.maxRelease {
			e.maxRelease = release
		}
		return
	}
	if release > fx.maxRel {
		fx.maxRel = release
	}
}

// pushReady queues one response for delivery. Serial path: straight into
// the shared release heap. Shard worker: recorded in the effect sink; the
// merge replays pushes in canonical serial order, so heap sequence numbers
// — and therefore delivery order among equal releases — are bit-identical
// to the serial run.
func (e *engine) pushReady(fx *chanFX, id uint64, release int64) {
	if fx == nil {
		e.ready.Push(id, release)
		return
	}
	fx.resps = append(fx.resps, shardRespFX{id: id, release: release})
}

// channelHasWorkScaled reports whether channel ch's controller has arrived
// requests to serve (scaled mode has no staging: issues are visible at
// once).
func (e *engine) channelHasWorkScaled(ch int) bool {
	c := &e.sys.chans[ch]
	return !c.tile.IncomingEmpty() || c.ctl.Pending() > 0
}

// pickChannelScaled selects the channel with work whose MC service chain is
// furthest behind (ties to the lower index): the channel a bank of real
// parallel controllers would have made progress on first.
func (e *engine) pickChannelScaled() (int, bool) {
	best, ok := -1, false
	var bestKey clock.PS
	for ch := range e.sys.chans {
		if !e.channelHasWorkScaled(ch) {
			continue
		}
		key := e.mcTimeOf(ch)
		if !ok || key < bestKey {
			best, bestKey, ok = ch, key, true
		}
	}
	return best, ok
}

// settleRefreshesScaled deterministically accounts every REF due on channel
// ch before its next request service starts: a refresh fires iff it is due
// by max(service point, next arrival). Refreshes falling in idle periods
// chain off the stale service point and so cost the emulated timeline
// nothing.
func (e *engine) settleRefreshesScaled(ch int, fx *chanFX) error {
	c := &e.sys.chans[ch]
	if !c.ctl.RefreshEnabled() {
		return nil
	}
	single := len(e.sys.chans) == 1
	for {
		arrival, ok := e.earliestArrival(ch)
		if !ok {
			return nil
		}
		horizon := e.cfg.CPU.Clock.ToTime(clock.Cycles(arrival))
		var mc clock.PS
		if single {
			mc = e.cfg.CPU.Clock.ToTime(e.ts.MC())
		} else {
			mc = e.cfg.CPU.Clock.ToTime(e.cfg.CPU.Clock.CyclesFloor(e.chanMC[ch]))
		}
		if mc > horizon {
			horizon = mc
		}
		due := c.ctl.NextRefreshDue()
		if due > horizon {
			return nil
		}
		env := c.env
		env.Reset(due)
		if err := c.ctl.ServeRefresh(env); err != nil {
			return err
		}
		charged := env.ChargedFPGA()
		if e.cfg.HardwareMC {
			charged = 0
		}
		e.chargeWallScaled(fx, clock.PS(charged)*e.cfg.FPGA.Period()+env.BenderWall())
		if single {
			e.ts.ServeModeled(e.cfg.CPU.Clock.CyclesCeil(due), env.Occupancy(), env.Latency())
		} else {
			e.serveModeledChan(ch, fx, e.cfg.CPU.Clock.CyclesCeil(due), env.Occupancy(), env.Latency())
		}
	}
}

// smcStepScaled runs one software-memory-controller iteration on the
// furthest-behind channel with work and settles its cost into the
// time-scaling counters.
func (e *engine) smcStepScaled() error {
	ch, ok := e.pickChannelScaled()
	if !ok {
		// Nothing left to serve: every in-flight request has a ready
		// response. Let the processor domain catch up to the earliest
		// release so the responses mature.
		if e.ready.Len() > 0 {
			e.ts.JumpProcTo(clock.Cycles(e.ready.Min().release))
			return nil
		}
		return fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}
	return e.stepChannelScaled(ch, nil)
}

// stepChannelScaled runs one controller iteration on channel ch. With a nil
// fx the step applies its shared effects (wall charges, the shared MC
// counter, release-heap pushes, maxRelease) directly — the serial path. A
// non-nil fx is a shard worker's effect sink: shared effects are recorded
// there for the canonical merge, and everything the step touches directly
// is channel-local (see shard.go).
func (e *engine) stepChannelScaled(ch int, fx *chanFX) error {
	if err := e.settleRefreshesScaled(ch, fx); err != nil {
		return err
	}
	c := &e.sys.chans[ch]
	env := c.env
	env.Reset(e.cfg.CPU.Clock.ToTime(e.cfg.CPU.Clock.CyclesFloor(e.mcTimeOf(ch))))
	worked, err := c.ctl.ServeOne(env)
	if err != nil {
		return err
	}
	if !worked {
		if fx != nil {
			// A worker cannot consult the shared ready queue or move the
			// processor; park the channel and let the serial path resolve
			// the idle state.
			fx.stopped = true
			return nil
		}
		// Nothing left to serve on this channel: every in-flight request
		// routed here has a ready response. Let the processor domain catch
		// up to the earliest release so the responses mature.
		if e.ready.Len() > 0 {
			e.ts.JumpProcTo(clock.Cycles(e.ready.Min().release))
			return nil
		}
		return fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}

	single := len(e.sys.chans) == 1

	charged := env.ChargedFPGA()
	if e.cfg.HardwareMC {
		charged = 0
	}
	e.chargeWallScaled(fx, clock.PS(charged)*e.cfg.FPGA.Period()+env.BenderWall())

	responses := env.Responses()
	// One service on the channel's MC resource: start at max(service point,
	// the served request's arrival tag), occupy for the step's occupancy,
	// and tag the responses with the release point (start + latency, plus
	// the modeled hardware-controller extra) — the exact mirror of the
	// reference engine's wall-clock service math.
	arrival := clock.Cycles(0)
	if len(responses) > 0 {
		if p, ok := e.inflight[ch].Get(responses[0].ReqID); ok {
			arrival = p.tag
		}
	}
	var release clock.Cycles
	if single {
		release = e.ts.ServeModeled(arrival, env.Occupancy(), env.Latency()+e.extraModeled(len(responses)))
	} else {
		release = e.serveModeledChan(ch, fx, arrival, env.Occupancy(), env.Latency()+e.extraModeled(len(responses)))
	}
	for _, r := range responses {
		p, ok := e.inflight[ch].Take(r.ReqID)
		if !ok {
			return fmt.Errorf("core: response for unknown request %d", r.ReqID)
		}
		e.noteRelease(fx, release)
		if e.multi != nil {
			e.multi.noteSettled(r.ReqID, int64(release), p.posted)
			continue
		}
		if p.posted {
			continue
		}
		e.pushReady(fx, r.ReqID, int64(release))
	}
	if fx == nil {
		e.maybeExitCritical()
	}
	return nil
}
