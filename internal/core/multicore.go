package core

import (
	"fmt"
	"math"

	"easydram/internal/clock"
	"easydram/internal/cpu"
	"easydram/internal/workload"
)

// Multi-core emulated hosts: N cpu.Core instances with
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
// this loop: Cores <= 1 routes through the single-core drivers (engine.go),
// so they stay bit-identical to the pre-multicore engine (golden-pinned).
// Both loops share the channel-service path (channel.go).

// mcQuantum caps how many emulated cycles one core step may advance between
// merge events, bounding both inter-core skew and the arrival clamp's
// distortion.
const mcQuantum = 64

// mcInf is the event key of an actor with no schedulable event.
const mcInf = int64(math.MaxInt64)

// mcOwner reports which of n cores issued request id (IDs are interleaved-
// dense: core i uses i+1, i+1+n, i+1+2n, …; see cpu.Core.SetIDSpace).
func mcOwner(id uint64, n int) int { return int((id - 1) % uint64(n)) }

// mcCore is one emulated core's engine-side state: the per-core queue and
// flags every driver keeps (coreState) plus the core's merge position.
type mcCore struct {
	coreState
	// pos is the core's own clock on the event-key grid: emulated
	// processor cycles (scaled) or wall picoseconds (unscaled).
	pos int64
	// inflight counts the core's outstanding requests, posted included.
	inflight int
	finished bool
	// fenceAt is the latest settle point among the core's requests — what
	// its next fence completion advances pos to.
	fenceAt    int64
	procCycles clock.Cycles
}

// mcEngine is the merge-loop state shared across cores.
type mcEngine struct {
	e     *engine
	cores []*mcCore
	// unit is one processor cycle on the event-key grid: 1 under time
	// scaling, the processor period in picoseconds without it.
	unit int64
	// lastArrival is the per-channel monotone arrival clamp (event-key
	// domain of the mode in use).
	lastArrival []int64
	// keys caches each actor's event key, channels first (actor ch) and
	// then cores (actor nch+i); a channel without work keys mcInf. The
	// next pick recomputes the keys of the actors listed in stale (an
	// actor may be listed twice). A key depends only on state two steps
	// change: stepCore changes its core and, through issue, each channel
	// it issues to; stepChannel changes its channel and, through
	// noteSettled, the owning core of each response it settles. The cache
	// is derived state and never serializes: whatever rebuilds engine
	// state calls staleAll.
	keys  []int64
	stale []int
	nch   int
}

// staleAll marks every actor's cached key stale.
func (m *mcEngine) staleAll() {
	m.stale = m.stale[:0]
	for a := range m.keys {
		m.stale = append(m.stale, a)
	}
}

// noteSettled records one settled response for its owning core: the fence
// point, the in-flight count, and — for non-posted requests — the per-core
// delivery queue. Called from the channel settle paths in place of the
// single-core shared-queue push.
func (m *mcEngine) noteSettled(id uint64, release int64, posted bool) {
	owner := mcOwner(id, len(m.cores))
	m.stale = append(m.stale, m.nch+owner)
	c := m.cores[owner]
	c.inflight--
	if release > c.fenceAt {
		c.fenceAt = release
	}
	if !posted {
		c.ready.Push(id, release)
	}
}

// coreKey is core c's next event key, or mcInf when only channel progress
// can unblock it.
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

// actorKey computes actor a's event key: a channel's chanKey when it has
// work, a core's coreKey.
func (m *mcEngine) actorKey(a int) int64 {
	if a >= m.nch {
		return m.coreKey(m.cores[a-m.nch])
	}
	if !m.e.channelHasWork(a) {
		return mcInf
	}
	return m.e.chanKey(a)
}

// pickActor returns the earliest actor and its key, or -1 when no actor
// has an event. Channels scan before cores and the strict comparison
// keeps the first, so channels win ties and responses settle before a
// same-key core steps past them. Only stale keys are recomputed.
func (m *mcEngine) pickActor() (best int, key int64) {
	for _, a := range m.stale {
		m.keys[a] = m.actorKey(a)
	}
	m.stale = m.stale[:0]
	best, key = -1, mcInf
	for a, k := range m.keys {
		if k < key {
			best, key = a, k
		}
	}
	return best, key
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

// runMerge drives the key-ordered merge loop in either mode. Keys are
// emulated processor cycles with time scaling and wall picoseconds without;
// unit is one processor cycle in keys. With time scaling the loop runs
// without critical mode: the key order itself paces cores against the
// modeled memory system, so ProcAllowance never gates a step. The ts
// counters still carry the wall (FPGA) charges of every SMC step, and the
// processor counter is jumped to the makespan once at the end —
// GlobalCycles therefore covers the emulation's full wall cost exactly as
// the single-core engine's incremental advances would.
func (e *engine) runMerge() error {
	m := e.multi
	for {
		a, key := m.pickActor()
		if a < 0 {
			if m.allFinished() {
				break
			}
			return m.deadlockErr()
		}
		// The wall-clock merge clock: keys are processed in nondecreasing
		// order, so wallNow is monotone — the channel service path reads it
		// as "now".
		if !e.cfg.Scaling && clock.PS(key) > e.wallNow {
			e.wallNow = clock.PS(key)
		}
		m.stale = append(m.stale, a)
		if a < m.nch {
			if err := e.stepChannel(a); err != nil {
				return err
			}
			continue
		}
		if err := m.stepCore(a - m.nch); err != nil {
			return err
		}
	}

	// Finalize: the run's processor time is the makespan.
	makespan := clock.Cycles(0)
	for _, c := range m.cores {
		makespan = max(makespan, c.procCycles)
		e.wallNow = max(e.wallNow, clock.PS(c.pos))
	}
	if e.cfg.Scaling {
		e.ts.JumpProcTo(makespan)
		return nil
	}
	e.procCycles = makespan
	e.finishWall()
	return nil
}

// cycles converts the key span k >= 0 to whole processor cycles, rounding
// up. Under time scaling keys are cycles and the conversion is free.
func (m *mcEngine) cycles(k int64) int64 {
	if m.unit == 1 {
		return k
	}
	return (k + m.unit - 1) / m.unit
}

// stepCore advances core ci one merge event: consume a matured response,
// complete a fence, or run up to mcQuantum processor cycles and issue the
// resulting requests. A core consumes a response at its next clock edge,
// so positions round up to whole units.
func (m *mcEngine) stepCore(ci int) error {
	e := m.e
	c := m.cores[ci]

	e.deliverMatured(&c.coreState, c.pos)

	if c.blockedOn != 0 {
		rel, ok := c.ready.Release(c.blockedOn)
		if !ok {
			return fmt.Errorf("core: multicore merge stepped blocked core %d without its response", ci)
		}
		if rel > c.pos {
			c.pos = m.cycles(rel) * m.unit
		}
		c.ready.Remove(c.blockedOn)
		c.core.Deliver(c.blockedOn)
		c.blockedOn = 0
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
			e.deliverMatured(&c.coreState, c.pos)
			return nil
		}
		return fmt.Errorf("core: multicore merge stepped fencing core %d with %d requests in flight", ci, c.inflight)
	}

	// Runnable: batch up to the quantum, cut at the next response's
	// delivery edge (the batching contract of cpu.Core.Step).
	budget := clock.Cycles(mcQuantum)
	if c.ready.Len() > 0 {
		if b := clock.Cycles(m.cycles(c.ready.Min().release - c.pos)); b < budget {
			budget = b
		}
	}
	// The core's processor cycle, floored; a step adds whole cycles.
	proc := clock.Cycles(c.pos)
	if m.unit != 1 {
		proc = clock.Cycles(c.pos / m.unit)
	}
	out := c.core.Step(proc, budget)
	if out.Finished {
		c.finished = true
		c.procCycles = proc
		return nil
	}
	if out.Mark {
		c.marks = append(c.marks, proc)
	}
	c.pos += int64(out.Cycles) * m.unit
	proc += out.Cycles
	if err := e.checkCap(proc); err != nil {
		return err
	}
	for i := range out.Reqs {
		req := &out.Reqs[i]
		ch := e.sys.chanIndex(req.Addr)
		at := max(c.pos, m.lastArrival[ch])
		m.lastArrival[ch] = at
		m.stale = append(m.stale, ch)
		e.issue(req, ch, at, true)
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

// runMulti builds the N-core engine and drives the merge loop.
func (s *System) runMulti(strms []workload.Stream) (Result, error) {
	for _, st := range strms {
		defer st.Close()
	}
	n, nch := len(strms), len(s.chans)
	m := &mcEngine{
		unit:        1,
		lastArrival: make([]int64, nch),
		keys:        make([]int64, nch+n),
		nch:         nch,
	}
	if !s.cfg.Scaling {
		m.unit = int64(s.cfg.ProcPhys.Period())
	}
	for i, st := range strms {
		core, err := cpu.New(s.cfg.CPU, s.mhier.View(i), st)
		if err != nil {
			return Result{}, fmt.Errorf("core: %w", err)
		}
		core.SetIDSpace(uint64(i)+1, uint64(n))
		m.cores = append(m.cores, &mcCore{coreState: coreState{core: core, ready: newReleaseQueue()}})
	}
	e, err := s.newEngine()
	if err != nil {
		return Result{}, err
	}
	m.e, e.multi = e, m
	m.staleAll()
	return s.finish(e, e.runMerge())
}
