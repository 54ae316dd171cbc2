package core

import (
	"fmt"
	"math"

	"easydram/internal/clock"
	"easydram/internal/cpu"
	"easydram/internal/timescale"
	"easydram/internal/workload"
)

// Multi-core emulated hosts (ROADMAP item 2): N cpu.Core instances with
// private L1s behind a shared L2 (cache.MultiHierarchy) issue misses into
// the existing per-channel controllers, competing for banks — the habitat
// interference schedulers like BLISS exist for.
//
// The engine is a key-ordered discrete-event merge: every core and every
// channel-with-work is an actor with a monotone event key (wall picoseconds
// unscaled, emulated processor cycles scaled), and each iteration advances
// the globally earliest actor (ties: channels before cores, then the lower
// index). Eager channel stepping is what makes scheduler decisions see
// exactly the requests that arrived by their decision time — the lazy
// "serve only when the core is stuck" order of the single-core engines is
// only timing-correct with one core, because no new requests can arrive
// while that core is stopped.
//
// Determinism: every key is an integer, actor scan order is fixed, and a
// per-channel monotone arrival clamp (a request's effective arrival is
// max(its core's position, the channel's last recorded arrival)) keeps the
// staged lists and arrival rings on the invariants the channel machinery
// assumes. The clamp's distortion is bounded by the core step quantum
// (mcQuantum) plus one batch's overshoot. Single-core configs never enter
// this file: Cores <= 1 routes through the unchanged engines, so they stay
// bit-identical to the pre-multicore engine (golden-pinned).

// mcQuantum caps how many emulated cycles one core step may advance between
// merge events, bounding both inter-core skew and the arrival clamp's
// distortion.
const mcQuantum = 64

// mcInf is the event key of an actor with no schedulable event.
const mcInf = int64(math.MaxInt64)

// mcOwner reports which of n cores issued request id (IDs are interleaved-
// dense: core i uses i+1, i+1+n, i+1+2n, …; see cpu.Core.SetIDSpace).
func mcOwner(id uint64, n int) int { return int((id - 1) % uint64(n)) }

// mcCore is one emulated core's engine-side state.
type mcCore struct {
	core *cpu.Core
	// pos is the core's own clock: wall picoseconds (unscaled) or emulated
	// processor cycles (scaled), stored as the event-key integer domain.
	pos int64
	// ready holds this core's produced responses keyed by release point.
	ready releaseQueue
	// inflight counts the core's outstanding requests, posted included.
	inflight  int
	blockedOn uint64
	fencing   bool
	finished  bool
	// fenceAt is the latest settle point among the core's requests — what
	// its next fence completion advances pos to.
	fenceAt    int64
	marks      []clock.Cycles
	procCycles clock.Cycles
}

// mcEngine is the merge-loop state shared across cores.
type mcEngine struct {
	e     *engine
	cores []*mcCore
	// lastArrival is the per-channel monotone arrival clamp (event-key
	// domain of the mode in use).
	lastArrival []int64
}

// noteSettled records one settled response for its owning core: the fence
// point, the in-flight count, and — for non-posted requests — the per-core
// delivery queue. Called from the channel settle paths in place of the
// single-core shared-queue push.
func (m *mcEngine) noteSettled(id uint64, release int64, posted bool) {
	c := m.cores[mcOwner(id, len(m.cores))]
	c.inflight--
	if release > c.fenceAt {
		c.fenceAt = release
	}
	if !posted {
		c.ready.Push(id, release)
	}
}

// drainCore delivers every matured response (release <= the core's
// position) to the core, in release order.
func (m *mcEngine) drainCore(c *mcCore) {
	n := int64(0)
	for c.ready.Len() > 0 && c.ready.Min().release <= c.pos {
		it := c.ready.PopMin()
		c.core.Deliver(it.id)
		if c.blockedOn == it.id {
			c.blockedOn = 0
		}
		n++
	}
	if n > 0 {
		m.e.settleBatches++
		m.e.settleDelivered += n
	}
}

// coreKey is core c's next event key, or mcInf when only channel progress
// can unblock it. Shared by both modes: the domains differ but the state
// machine does not.
func (m *mcEngine) coreKey(c *mcCore) int64 {
	if c.finished {
		return mcInf
	}
	if c.blockedOn != 0 {
		if rel, ok := c.ready.Release(c.blockedOn); ok {
			return maxInt64(c.pos, rel)
		}
		return mcInf
	}
	if c.fencing {
		if c.inflight > 0 {
			return mcInf
		}
		if c.ready.Len() > 0 {
			return maxInt64(c.pos, c.ready.Min().release)
		}
		return maxInt64(c.pos, c.fenceAt)
	}
	return c.pos
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// allFinished reports whether every core has exhausted its stream.
func (m *mcEngine) allFinished() bool {
	for _, c := range m.cores {
		if !c.finished {
			return false
		}
	}
	return true
}

// pickActor scans channels (via chanKey) then cores and returns the
// earliest actor: (channel index, -1) or (-1, core index). Channels win
// ties so responses settle before a same-key core steps past them.
func (m *mcEngine) pickActor(chanKey func(ch int) (int64, bool)) (bestChan, bestCore int, key int64) {
	bestChan, bestCore, key = -1, -1, mcInf
	for ch := range m.e.sys.chans {
		if k, ok := chanKey(ch); ok && k < key {
			key, bestChan = k, ch
		}
	}
	for i, c := range m.cores {
		if k := m.coreKey(c); k < key {
			key, bestCore, bestChan = k, i, -1
		}
	}
	return bestChan, bestCore, key
}

// deadlockErr reports the stuck state when no actor has an event.
func (m *mcEngine) deadlockErr() error {
	blocked := 0
	for _, c := range m.cores {
		if !c.finished {
			blocked++
		}
	}
	return fmt.Errorf("core: multicore merge deadlocked with %d unfinished cores and %d requests in flight",
		blocked, m.e.inflightLen())
}

// runMultiUnscaled drives the wall-clock merge loop (time scaling off).
func (e *engine) runMultiUnscaled() error {
	m := e.multi
	procPeriod := e.cfg.ProcPhys.Period()

	chanKey := func(ch int) (int64, bool) {
		if !e.channelHasWorkUnscaled(ch) {
			return 0, false
		}
		return int64(e.chanKeyUnscaled(ch)), true
	}

	for {
		ch, ci, key := m.pickActor(chanKey)
		if ch < 0 && ci < 0 {
			if m.allFinished() {
				break
			}
			return m.deadlockErr()
		}
		// The merge clock: keys are processed in nondecreasing order, so
		// wallNow is monotone — the channel service paths read it as "now".
		if clock.PS(key) > e.wallNow {
			e.wallNow = clock.PS(key)
		}
		if ch >= 0 {
			if _, err := e.stepChannelUnscaled(ch, nil); err != nil {
				return err
			}
			continue
		}
		if err := m.stepCoreUnscaled(ci, procPeriod); err != nil {
			return err
		}
	}

	// Finalize: the run's processor time is the makespan; wall time covers
	// the last core's finish and every channel's service chain.
	final := e.wallNow
	for _, c := range m.cores {
		if c.procCycles > e.procCycles {
			e.procCycles = c.procCycles
		}
		if clock.PS(c.pos) > final {
			final = clock.PS(c.pos)
		}
	}
	for _, free := range e.chanFree {
		if free > final {
			final = free
		}
	}
	e.globalFinal = e.cfg.FPGA.CyclesCeil(final)
	return nil
}

// stepCoreUnscaled advances core ci one merge event in the wall-clock
// domain: consume a matured response, complete a fence, or run up to
// mcQuantum processor cycles and issue the resulting requests.
func (m *mcEngine) stepCoreUnscaled(ci int, procPeriod clock.PS) error {
	e := m.e
	c := m.cores[ci]
	proc := func() clock.Cycles { return clock.Cycles(clock.PS(c.pos) / procPeriod) }

	m.drainCore(c)

	if c.blockedOn != 0 {
		rel, ok := c.ready.Release(c.blockedOn)
		if !ok {
			return fmt.Errorf("core: multicore merge stepped blocked core %d without its response", ci)
		}
		// The core consumes the response at its next clock edge, mirroring
		// the single-core engine.
		if clock.PS(rel) > clock.PS(c.pos) {
			c.pos = int64(clock.PS(e.cfg.ProcPhys.CyclesCeil(clock.PS(rel))) * procPeriod)
		}
		c.ready.Remove(c.blockedOn)
		c.core.Deliver(c.blockedOn)
		c.blockedOn = 0
		m.drainCore(c)
		return nil
	}

	if c.fencing {
		if c.inflight == 0 && c.ready.Len() == 0 {
			if c.fenceAt > c.pos {
				c.pos = c.fenceAt
			}
			c.fencing = false
			c.core.FenceDone()
			return nil
		}
		if c.inflight == 0 {
			// Only ready responses remain: advance to the earliest and let
			// the drain deliver it.
			if rel := c.ready.Min().release; rel > c.pos {
				c.pos = rel
			}
			m.drainCore(c)
			return nil
		}
		return fmt.Errorf("core: multicore merge stepped fencing core %d with %d requests in flight", ci, c.inflight)
	}

	// Runnable: batch up to the quantum, cut at the next response's
	// delivery edge (the batching contract of cpu.Core.Step).
	budget := clock.Cycles(mcQuantum)
	if c.ready.Len() > 0 {
		rel := clock.PS(c.ready.Min().release)
		if b := clock.Cycles((rel - clock.PS(c.pos) + procPeriod - 1) / procPeriod); b < budget {
			budget = b
		}
	}
	out := c.core.Step(proc(), budget)
	if out.Finished {
		c.finished = true
		c.procCycles = proc()
		return nil
	}
	if out.Mark {
		c.marks = append(c.marks, proc())
	}
	c.pos += int64(clock.PS(out.Cycles) * procPeriod)
	if err := e.checkCap(proc()); err != nil {
		return err
	}
	for i := range out.Reqs {
		req := &out.Reqs[i]
		req.Tag = proc()
		chIdx := e.sys.chanIndex(req.Addr)
		arrival := c.pos
		if m.lastArrival[chIdx] > arrival {
			arrival = m.lastArrival[chIdx]
		}
		m.lastArrival[chIdx] = arrival
		e.staged[chIdx] = append(e.staged[chIdx], stagedReq{slot: e.sys.chans[chIdx].tile.Stage(req), id: req.ID})
		e.inflight[chIdx].Put(req.ID, pending{posted: req.Posted, arrival: clock.PS(arrival)})
		if e.trackArrivals {
			e.arrivals[chIdx].Push(req.ID, arrival)
		}
		c.inflight++
	}
	if out.Fence {
		c.fencing = true
	}
	if out.WaitID != 0 {
		c.blockedOn = out.WaitID
	}
	return nil
}

// runMultiScaled is the time-scaled merge loop. It runs without critical
// mode: the key order itself paces cores against the modeled memory system,
// so ProcAllowance never gates a step. The ts counters still carry the wall
// (FPGA) charges of every SMC step, and the processor counter is jumped to
// the makespan once at the end — GlobalCycles therefore covers the
// emulation's full wall cost exactly as the single-core engine's
// incremental advances would.
func (e *engine) runMultiScaled() error {
	ts, err := timescale.New(e.cfg.FPGA, e.cfg.ProcPhys, e.cfg.CPU.Clock, true)
	if err != nil {
		return err
	}
	e.ts = ts
	m := e.multi

	for {
		ch, ci, _ := m.pickActor(m.chanKeyScaled)
		if ch < 0 && ci < 0 {
			if m.allFinished() {
				break
			}
			return m.deadlockErr()
		}
		if ch >= 0 {
			m.ingestScaled(ch)
			if err := e.stepChannelScaled(ch, nil); err != nil {
				return err
			}
			continue
		}
		if err := m.stepCoreScaled(ci); err != nil {
			return err
		}
	}

	makespan := clock.Cycles(0)
	for _, c := range m.cores {
		if c.procCycles > makespan {
			makespan = c.procCycles
		}
	}
	ts.JumpProcTo(makespan)
	return nil
}

// chanKeyScaled is channel ch's next decision point in emulated processor
// cycles: its modeled-MC chain, lifted to the first staged tag when the
// channel is otherwise idle.
func (m *mcEngine) chanKeyScaled(ch int) (int64, bool) {
	e := m.e
	c := &e.sys.chans[ch]
	busy := !c.tile.IncomingEmpty() || c.ctl.Pending() > 0
	if !busy && len(e.staged[ch]) == 0 {
		return 0, false
	}
	key := int64(e.cfg.CPU.Clock.CyclesFloor(e.mcTimeOf(ch)))
	if !busy {
		if p, ok := e.inflight[ch].Get(e.staged[ch][0].id); ok && int64(p.tag) > key {
			key = int64(p.tag)
		}
	}
	return key, true
}

// ingestScaled makes exactly the staged requests that have arrived by
// channel ch's next decision point visible to its controller — the scaled
// counterpart of the unscaled engine's staging gate (multi-core issues are
// staged in both modes; with several cores a request must not be visible to
// decisions made before its issue tag).
func (m *mcEngine) ingestScaled(ch int) {
	e := m.e
	c := &e.sys.chans[ch]
	if len(e.staged[ch]) == 0 {
		return
	}
	decision := e.cfg.CPU.Clock.CyclesFloor(e.mcTimeOf(ch))
	if c.tile.IncomingEmpty() && c.ctl.Pending() == 0 {
		if p, ok := e.inflight[ch].Get(e.staged[ch][0].id); ok && p.tag > decision {
			decision = p.tag
		}
	}
	kept := e.staged[ch][:0]
	for _, sr := range e.staged[ch] {
		if p, _ := e.inflight[ch].Get(sr.id); p.tag <= decision {
			c.tile.Enqueue(sr.slot)
		} else {
			kept = append(kept, sr)
		}
	}
	e.staged[ch] = kept
}

// stepCoreScaled advances core ci one merge event in the emulated-cycle
// domain.
func (m *mcEngine) stepCoreScaled(ci int) error {
	e := m.e
	c := m.cores[ci]

	m.drainCore(c)

	if c.blockedOn != 0 {
		rel, ok := c.ready.Release(c.blockedOn)
		if !ok {
			return fmt.Errorf("core: multicore merge stepped blocked core %d without its response", ci)
		}
		if rel > c.pos {
			c.pos = rel
		}
		c.ready.Remove(c.blockedOn)
		c.core.Deliver(c.blockedOn)
		c.blockedOn = 0
		m.drainCore(c)
		return nil
	}

	if c.fencing {
		if c.inflight == 0 && c.ready.Len() == 0 {
			if c.fenceAt > c.pos {
				c.pos = c.fenceAt
			}
			c.fencing = false
			c.core.FenceDone()
			return nil
		}
		if c.inflight == 0 {
			if rel := c.ready.Min().release; rel > c.pos {
				c.pos = rel
			}
			m.drainCore(c)
			return nil
		}
		return fmt.Errorf("core: multicore merge stepped fencing core %d with %d requests in flight", ci, c.inflight)
	}

	budget := clock.Cycles(mcQuantum)
	if c.ready.Len() > 0 {
		if b := clock.Cycles(c.ready.Min().release - c.pos); b < budget {
			budget = b
		}
	}
	out := c.core.Step(clock.Cycles(c.pos), budget)
	if out.Finished {
		c.finished = true
		c.procCycles = clock.Cycles(c.pos)
		return nil
	}
	if out.Mark {
		c.marks = append(c.marks, clock.Cycles(c.pos))
	}
	c.pos += int64(out.Cycles)
	if err := e.checkCap(clock.Cycles(c.pos)); err != nil {
		return err
	}
	for i := range out.Reqs {
		req := &out.Reqs[i]
		tag := c.pos
		chIdx := e.sys.chanIndex(req.Addr)
		if m.lastArrival[chIdx] > tag {
			tag = m.lastArrival[chIdx]
		}
		m.lastArrival[chIdx] = tag
		req.Tag = clock.Cycles(tag)
		e.staged[chIdx] = append(e.staged[chIdx], stagedReq{slot: e.sys.chans[chIdx].tile.Stage(req), id: req.ID})
		e.inflight[chIdx].Put(req.ID, pending{posted: req.Posted, tag: clock.Cycles(tag)})
		if e.trackArrivals {
			e.arrivals[chIdx].Push(req.ID, tag)
		}
		c.inflight++
	}
	if out.Fence {
		c.fencing = true
	}
	if out.WaitID != 0 {
		c.blockedOn = out.WaitID
	}
	return nil
}

// runMulti builds the N-core engine and drives the mode's merge loop.
func (s *System) runMulti(strms []workload.Stream) (Result, error) {
	for _, st := range strms {
		defer st.Close()
	}
	n := len(strms)
	m := &mcEngine{lastArrival: make([]int64, len(s.chans))}
	for i, st := range strms {
		core, err := cpu.New(s.cfg.CPU, s.mhier.View(i), st)
		if err != nil {
			return Result{}, fmt.Errorf("core: %w", err)
		}
		core.SetIDSpace(uint64(i)+1, uint64(n))
		m.cores = append(m.cores, &mcCore{core: core, ready: newReleaseQueue()})
	}
	nch := len(s.chans)
	e := &engine{
		cfg:           s.cfg,
		sys:           s,
		multi:         m,
		inflight:      make([]slotRing, nch),
		ready:         newReleaseQueue(),
		trackArrivals: s.cfg.RefreshEnabled,
		// Shard workers are single-core machinery; the merge loop runs
		// channel steps serial.
		chanFree:     make([]clock.PS, nch),
		chanMC:       make([]clock.PS, nch),
		arrivals:     make([]arrivalRing, nch),
		staged:       make([][]stagedReq, nch),
		shardWorkers: 1,
	}
	for i := range e.inflight {
		e.inflight[i] = newSlotRing()
	}
	m.e = e
	var err error
	if s.cfg.Scaling {
		err = e.runMultiScaled()
	} else {
		err = e.runMultiUnscaled()
	}
	s.settleBatches, s.settleDelivered = e.settleBatches, e.settleDelivered
	s.shardRounds, s.shardSteps = 0, 0
	if err != nil {
		return Result{}, err
	}
	return e.result(), nil
}
