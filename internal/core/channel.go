package core

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/smc"
)

// The channel-service path every engine loop shares. Each channel is a
// serial resource with one service chain (engine.chain), and every key the
// engine orders by — request arrivals, response releases, channel decision
// points — is an int64 on one event-key grid: emulated processor cycles
// under time scaling, wall picoseconds without it. The §6 difference
// between the two modes lives in account: time scaling clock-gates the
// processor and moves the channel's modeled-MC chain by the *modeled*
// service time, while "No Time Scaling" lets the software controller's real
// wall time occupy the channel. The idle step and stepChannel's
// ingest/refresh order are the only other mode branches.

// toKey floors a time onto the event-key grid; keyTime converts a key back.
func (e *engine) toKey(t clock.PS) int64   { return int64(t / e.keyPS) }
func (e *engine) keyTime(k int64) clock.PS { return clock.PS(k) * e.keyPS }

// deliverMatured hands core h every ready response whose release key is at
// or before now, in release order (O(log n) each). Each nonzero drain is
// one settle batch.
func (e *engine) deliverMatured(h *coreState, now int64) {
	n := int64(0)
	for h.ready.Len() > 0 && h.ready.Min().release <= now {
		it := h.ready.PopMin()
		h.core.Deliver(it.id)
		if h.blockedOn == it.id {
			h.blockedOn = 0
		}
		n++
	}
	if n > 0 {
		e.settleBatches++
		e.settleDelivered += n
	}
}

// issue routes req to channel ch at arrival key at. The request is copied
// into the tile's slab here, once; every later stage carries its slot. A
// staged request stays invisible to the controller until the channel's
// decision point reaches its arrival (ingest); an unstaged one is visible
// at once, which is right only when the caller gates the processor instead
// (single-core time scaling's critical mode).
func (e *engine) issue(req *mem.Request, ch int, at int64, stage bool) {
	t := e.sys.chans[ch].tile
	if stage {
		e.staged[ch] = append(e.staged[ch], stagedReq{slot: t.Stage(req), id: req.ID})
	} else {
		t.PushRequest(req)
	}
	e.inflight[ch].Put(req.ID, pending{posted: req.Posted, at: at})
	if e.trackArrivals {
		e.arrivals[ch].Push(req.ID, at)
	}
}

// channelHasWork reports whether channel ch has anything for its
// controller: arrived requests in the tile FIFO, buffered table entries, or
// staged requests it would wait for.
func (e *engine) channelHasWork(ch int) bool {
	c := &e.sys.chans[ch]
	return !c.tile.IncomingEmpty() || c.ctl.Pending() > 0 || len(e.staged[ch]) > 0
}

// decisionTime is channel ch's next controller decision point: its service
// chain, lifted to its first staged arrival when it has nothing else to
// serve.
func (e *engine) decisionTime(ch int) clock.PS {
	t := e.chain[ch]
	c := &e.sys.chans[ch]
	if len(e.staged[ch]) > 0 && c.tile.IncomingEmpty() && c.ctl.Pending() == 0 {
		if p, ok := e.inflight[ch].Get(e.staged[ch][0].id); ok && e.keyTime(p.at) > t {
			t = e.keyTime(p.at)
		}
	}
	return t
}

// chanKey is channel ch's decision point floored onto the event-key grid:
// what the multi-core merge orders channels by and what ingest admits up to.
func (e *engine) chanKey(ch int) int64 { return e.toKey(e.decisionTime(ch)) }

// pickChannel selects the channel with work whose next decision point is
// earliest in exact picoseconds (ties to the lower index): the channel a
// bank of real parallel controllers would have made progress on first.
// The single-core drivers pick this way; the multi-core merge orders by
// the floored chanKey, and each order is part of its loop's pinned output.
func (e *engine) pickChannel() (int, bool) {
	best, ok := -1, false
	var bestKey clock.PS
	for ch := range e.sys.chans {
		if !e.channelHasWork(ch) {
			continue
		}
		if key := e.decisionTime(ch); !ok || key < bestKey {
			best, bestKey, ok = ch, key, true
		}
	}
	return best, ok
}

// ingest makes exactly the staged requests that have arrived by channel
// ch's next decision point visible to its controller. Staged requests sit
// in issue order and arrivals are monotone per channel.
func (e *engine) ingest(ch int) {
	if len(e.staged[ch]) == 0 {
		return
	}
	c := &e.sys.chans[ch]
	decision := e.chanKey(ch)
	kept := e.staged[ch][:0]
	for _, sr := range e.staged[ch] {
		if p, _ := e.inflight[ch].Get(sr.id); p.at <= decision {
			c.tile.Enqueue(sr.slot)
		} else {
			kept = append(kept, sr)
		}
	}
	e.staged[ch] = kept
}

// settleRefreshes deterministically accounts every REF due on channel ch
// before its next request service starts: a refresh fires iff it is due by
// max(service point, next arrival). Refreshes falling in idle periods chain
// off the stale service point and so cost the emulated timeline nothing.
func (e *engine) settleRefreshes(ch int) error {
	c := &e.sys.chans[ch]
	if !c.ctl.RefreshEnabled() {
		return nil
	}
	for {
		arrival, ok := e.earliestArrival(ch)
		if !ok {
			return nil
		}
		horizon := e.keyTime(max(arrival, e.toKey(e.chain[ch])))
		due := c.ctl.NextRefreshDue()
		if due > horizon {
			return nil
		}
		env := c.env
		env.Reset(due)
		if err := c.ctl.ServeRefresh(env); err != nil {
			return err
		}
		// A refresh arrives at the first key at or after it is due.
		e.account(ch, env, e.toKey(due+e.keyPS-1), 0)
	}
}

// smcStep runs one controller iteration on the channel picked by
// pickChannel.
func (e *engine) smcStep() error {
	ch, ok := e.pickChannel()
	if !ok {
		return e.idle(-1)
	}
	return e.stepChannel(ch)
}

// stepChannel runs one controller iteration on channel ch.
func (e *engine) stepChannel(ch int) error {
	// Time scaling ingests before settling refreshes, and the wall-clock
	// mode after; each order is part of the mode's pinned output.
	if e.cfg.Scaling {
		e.ingest(ch)
	}
	if err := e.settleRefreshes(ch); err != nil {
		return err
	}
	if !e.cfg.Scaling {
		e.ingest(ch)
	}
	c := &e.sys.chans[ch]
	env := c.env
	// The controller decides at its service point on the key grid, or at
	// the merge clock when that is later (wallNow stays 0 when scaling).
	env.Reset(max(e.wallNow, e.keyTime(e.toKey(e.chain[ch]))))
	worked, err := c.ctl.ServeOne(env)
	if err != nil {
		return err
	}
	if !worked {
		return e.idle(ch)
	}

	// The model serves one request per step, so the first response
	// identifies the request being served; its service cannot start before
	// it arrived.
	responses := env.Responses()
	var at int64
	if len(responses) > 0 {
		if p, ok := e.inflight[ch].Get(responses[0].ReqID); ok {
			at = p.at
		}
	}
	release, fence := e.account(ch, env, at, len(responses))
	e.fenceAt = max(e.fenceAt, fence)
	for _, r := range responses {
		p, ok := e.inflight[ch].Take(r.ReqID)
		if !ok {
			return fmt.Errorf("core: response for unknown request %d", r.ReqID)
		}
		if e.multi != nil {
			e.multi.noteSettled(r.ReqID, release, p.posted)
			continue
		}
		if p.posted {
			continue
		}
		e.ready.Push(r.ReqID, release)
	}
	e.maybeExitCritical()
	return nil
}

// account charges one controller step on channel ch — a request service
// carrying n responses, or a refresh (n = 0) — to the channel's service
// chain. The step starts at max(chain, arrival key at), occupies the
// channel for its occupancy, and releases its responses at start + latency
// (plus the modeled hardware-controller extra). account returns the release
// key and the point a fence must wait out for this step's work.
//
// This is the §6 seam. With time scaling the processor is clock-gated while
// the SMC and DRAM Bender run, so their wall time only moves the FPGA
// counter, and the chain is the channel's modeled-MC service point: the
// exact mirror of the reference engine's wall-clock service math. Without
// time scaling the chain is the channel's wall-clock busy point, and the raw
// software controller's charged cycles appear in both occupancy and latency.
func (e *engine) account(ch int, env *smc.Env, at int64, n int) (release, fence int64) {
	var charged clock.PS
	if !e.cfg.HardwareMC {
		charged = clock.PS(env.ChargedFPGA()) * e.cfg.FPGA.Period()
	}
	start := max(e.chain[ch], e.keyTime(at))
	latency := env.Latency() + e.extraModeled(n)
	if e.cfg.Scaling {
		e.ts.AdvanceWall(charged + env.BenderWall())
		e.chain[ch] = start + env.Occupancy()
		e.ts.RaiseMCTime(e.chain[ch])
		release = int64(e.cfg.CPU.Clock.CyclesCeil(start + max(latency, env.Occupancy())))
		if n > 0 {
			fence = release
		}
		return release, fence
	}
	completion := start + charged + env.Occupancy()
	e.chain[ch] = completion
	return int64(max(start+charged+latency, completion)), int64(completion)
}

// idle resolves a controller step that found nothing to serve on channel
// ch (-1: on any channel): every in-flight request routed there already has
// a ready response. With time scaling the processor domain catches up to
// the earliest release so the responses mature; without it the fence point
// covers the idle channels' busy chains.
func (e *engine) idle(ch int) error {
	if e.ready.Len() == 0 {
		return fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}
	switch {
	case e.cfg.Scaling:
		e.ts.JumpProcTo(clock.Cycles(e.ready.Min().release))
	case ch >= 0:
		e.fenceAt = max(e.fenceAt, int64(e.chain[ch]))
	default:
		for _, t := range e.chain {
			e.fenceAt = max(e.fenceAt, int64(t))
		}
	}
	return nil
}

// maybeExitCritical releases critical mode once nothing is in flight (time
// scaling only).
func (e *engine) maybeExitCritical() {
	if e.ts != nil && e.ts.Critical() && e.inflightLen() == 0 {
		e.ts.ExitCritical()
	}
}
