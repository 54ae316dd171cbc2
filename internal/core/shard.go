package core

// Host-parallel channel execution (ROADMAP item 1).
//
// During the engine's fence and drain phases the processor issues nothing:
// every channel's remaining work — its pick keys, its controller decisions,
// its service chain — is a pure function of channel-local state (tile FIFO,
// controller tables, staged list, chanFree/chanMC chain, per-channel fault
// seams) plus frozen engine state (wallNow, blockedOn=0). The
// shard runner exploits exactly that: it runs each channel with work to
// exhaustion on a bounded pool of host workers, records every effect that
// would have touched shared state in a per-channel sink (chanFX), and then
// replays those effects in canonical serial order.
//
// # Determinism argument
//
// The serial engine steps the channel with the minimum pick key, ties to
// the lower channel index. Each channel's pick key is monotone
// nondecreasing across its own steps (the key is the channel's next
// decision point; a step's service starts at or after it and advances it).
// Channel steps are mutually independent during fence/drain — they read no
// other channel's state and none of the shared state a step could change
// is read by another channel's step. The serial step sequence is therefore
// exactly the k-way merge of the per-channel step streams ordered by
// (key, channel): what mergeShard replays.
//
// Shared effects either replay in that canonical order or commute:
//
//   - release-heap pushes replay per merged step, so heap sequence numbers
//     (the tie-break among equal release points) are bit-identical;
//   - response deliveries/consumptions replay between merged steps with the
//     exact cadence of the serial loop (see mergeShard's settle modes);
//   - FPGA wall charges (scaled) only move the global counter — a sum of
//     per-call cycle ceilings, recorded per worker and credited at merge;
//   - maxWall / maxRelease are commutative maxima;
//   - the shared MC counter is a running maximum of monotone per-channel
//     chains, so lifting it once per channel at merge time reproduces it.
//
// Blocked and stall phases stay on the serial path: there the processor
// re-engages after (almost) every step, which collapses the horizon a
// channel could safely run ahead to. Those phases are instead served by
// batched response settlement (ROADMAP item 4; see drainMaturedUnscaled /
// deliverMaturedScaled).
//
// A worker that cannot make progress without shared state (the defensive
// "SMC idle" paths, which consult the shared ready queue) parks its channel
// (chanFX.stopped) and the round falls back to the serial step path; a
// round that recorded no steps at all reports ran=false for the same
// reason, so the engine never spins on a parked configuration.

import (
	"runtime"
	"sync"

	"easydram/internal/clock"
)

// effectiveShardWorkers resolves Config.ShardWorkers to the worker count a
// run actually uses: 0 means GOMAXPROCS, values above the channel count are
// clamped, and single-channel systems always take the serial path.
func effectiveShardWorkers(configured, nch int) int {
	if nch <= 1 {
		return 1
	}
	w := configured
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nch {
		w = nch
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardRespFX is one recorded release-heap push: a response ID and its
// release key (wall picoseconds unscaled, processor cycles scaled).
type shardRespFX struct {
	id      uint64
	release int64
}

// shardStepFX is one recorded channel step: the pick key it ran at (the
// merge's sort key) and the slice of recorded pushes it produced.
type shardStepFX struct {
	key    int64
	respLo int
	respHi int
}

// chanFX is one channel's effect sink for a shard round. Everything a step
// would have written to shared engine state lands here instead; the merge
// applies it in canonical order (steps, resps) or as commutative sums and
// maxima (global, maxRel, maxWall).
type chanFX struct {
	steps []shardStepFX
	resps []shardRespFX
	// err is the first error the channel's step stream hit, at pick key
	// errKey; the merge surfaces the canonically-first error across
	// channels, which is the one the serial run would have returned.
	err    error
	errKey int64
	// stopped parks the channel: its next step needs shared state (see the
	// "SMC idle" paths), so the serial path must take over.
	stopped bool
	// global is the channel's summed FPGA wall charge in FPGA cycles
	// (scaled mode; per-call ceilings already taken).
	global clock.Cycles
	// maxRel is the channel's maximum response release (scaled mode,
	// posted responses included — what a fence jumps to).
	maxRel clock.Cycles
	// maxWall is the channel's maximum step completion (unscaled mode —
	// what a fence waits out).
	maxWall clock.PS
}

func (f *chanFX) reset() {
	f.steps = f.steps[:0]
	f.resps = f.resps[:0]
	f.err = nil
	f.errKey = 0
	f.stopped = false
	f.global = 0
	f.maxRel = 0
	f.maxWall = 0
}

// shardRunner is the lazily created worker pool plus the per-channel effect
// sinks and merge scratch. All buffers are reused across rounds, so steady-
// state rounds allocate only when a channel's step/response volume grows
// past its high-water mark.
type shardRunner struct {
	jobs   chan int
	wg     sync.WaitGroup
	fx     []chanFX
	active []int
	cursor []int
}

// ensureShardPool creates the pool on first engagement: min(shardWorkers,
// channels) persistent goroutines consuming channel indices. The serial
// path (shardWorkers == 1) never reaches this, so worker-count-1 runs carry
// zero shard overhead.
func (e *engine) ensureShardPool() *shardRunner {
	if e.shard != nil {
		return e.shard
	}
	nch := len(e.sys.chans)
	r := &shardRunner{
		jobs:   make(chan int, nch),
		fx:     make([]chanFX, nch),
		active: make([]int, 0, nch),
		cursor: make([]int, nch),
	}
	e.shard = r
	scaled := e.cfg.Scaling
	workers := e.shardWorkers
	if workers > nch {
		workers = nch
	}
	for i := 0; i < workers; i++ {
		go func() {
			for ch := range r.jobs {
				if scaled {
					e.shardChannelScaled(ch, &r.fx[ch])
				} else {
					e.shardChannelUnscaled(ch, &r.fx[ch])
				}
				r.wg.Done()
			}
		}()
	}
	return r
}

// stopShard shuts the worker pool down (deferred by System.run, so pool
// goroutines never outlive their run).
func (e *engine) stopShard() {
	if e.shard != nil {
		close(e.shard.jobs)
		e.shard = nil
	}
}

// shardChannelUnscaled runs channel ch to exhaustion, recording each step's
// pick key and shared effects into fx. Channel-local state (chanFree,
// controller, tile, staged list, inflight ring) is mutated
// directly — no other worker touches it.
func (e *engine) shardChannelUnscaled(ch int, fx *chanFX) {
	for e.channelHasWorkUnscaled(ch) {
		key := int64(e.chanKeyUnscaled(ch))
		lo := len(fx.resps)
		w, err := e.stepChannelUnscaled(ch, fx)
		if err != nil {
			fx.err, fx.errKey = err, key
			return
		}
		if fx.stopped {
			return
		}
		if w > fx.maxWall {
			fx.maxWall = w
		}
		fx.steps = append(fx.steps, shardStepFX{key: key, respLo: lo, respHi: len(fx.resps)})
	}
}

// shardChannelScaled is shardChannelUnscaled's scaled-mode counterpart; the
// pick key is the channel's modeled-MC chain (sharding requires more than
// one channel, so mcTimeOf reduces to chanMC).
func (e *engine) shardChannelScaled(ch int, fx *chanFX) {
	for e.channelHasWorkScaled(ch) {
		key := int64(e.chanMC[ch])
		lo := len(fx.resps)
		if err := e.stepChannelScaled(ch, fx); err != nil {
			fx.err, fx.errKey = err, key
			return
		}
		if fx.stopped {
			return
		}
		fx.steps = append(fx.steps, shardStepFX{key: key, respLo: lo, respHi: len(fx.resps)})
	}
}

// shardRoundUnscaled runs one parallel fence/drain round in the unscaled
// engine. deliver selects the fence cadence (replay the loop-top drain of
// matured releases after every merged step); drains pass false — the serial
// drain loop never pops the ready queue. ran=false means the round did not
// engage (or made no progress) and the caller must take one serial step.
func (e *engine) shardRoundUnscaled(deliver bool) (bool, error) {
	if e.shardWorkers <= 1 {
		return false, nil
	}
	n := 0
	for ch := range e.sys.chans {
		if e.channelHasWorkUnscaled(ch) {
			n++
		}
	}
	if n < 2 {
		return false, nil
	}
	r := e.ensureShardPool()
	active := r.active[:0]
	for ch := range e.sys.chans {
		if e.channelHasWorkUnscaled(ch) {
			active = append(active, ch)
		}
	}
	r.active = active
	e.dispatchShard(active)
	return e.mergeShard(active, deliver)
}

// shardRoundScaled is shardRoundUnscaled's scaled-mode counterpart. consume
// selects the fence cadence (jump the processor to each matured release and
// consume it, exactly as the serial fence branch does between steps).
func (e *engine) shardRoundScaled(consume bool) (bool, error) {
	if e.shardWorkers <= 1 {
		return false, nil
	}
	n := 0
	for ch := range e.sys.chans {
		if e.channelHasWorkScaled(ch) {
			n++
		}
	}
	if n < 2 {
		return false, nil
	}
	r := e.ensureShardPool()
	active := r.active[:0]
	for ch := range e.sys.chans {
		if e.channelHasWorkScaled(ch) {
			active = append(active, ch)
		}
	}
	r.active = active
	e.dispatchShard(active)
	return e.mergeShard(active, consume)
}

// dispatchShard fans the active channels out to the pool and waits for the
// round to complete. The jobs channel holds every channel index without
// blocking (capacity = channel count), so dispatch cannot deadlock against
// a full pool.
func (e *engine) dispatchShard(active []int) {
	r := e.shard
	r.wg.Add(len(active))
	for _, ch := range active {
		r.fx[ch].reset()
		r.jobs <- ch
	}
	r.wg.Wait()
}

// mergeShard replays a completed round's recorded effects in canonical
// serial order: a k-way merge of the per-channel step streams by (pick key,
// channel index) — the exact order the serial engine would have stepped
// them — pushing each step's responses and, in fence mode (settle=true),
// replaying the serial loop's settlement cadence between steps. Worker
// errors surface as pseudo-steps at their pick key, so the canonically
// first error is returned, as the serial run would have.
func (e *engine) mergeShard(active []int, settle bool) (bool, error) {
	r := e.shard
	for _, ch := range active {
		r.cursor[ch] = 0
	}
	steps := 0
	for {
		best, bestKey, bestErr := -1, int64(0), false
		for _, ch := range active {
			f := &r.fx[ch]
			cur := r.cursor[ch]
			var k int64
			isErr := false
			switch {
			case cur < len(f.steps):
				k = f.steps[cur].key
			case f.err != nil && cur == len(f.steps):
				k, isErr = f.errKey, true
			default:
				continue
			}
			if best == -1 || k < bestKey {
				best, bestKey, bestErr = ch, k, isErr
			}
		}
		if best == -1 {
			break
		}
		f := &r.fx[best]
		if bestErr {
			// The run aborts here; effects recorded past this point are
			// discarded with the Result.
			return true, f.err
		}
		st := f.steps[r.cursor[best]]
		r.cursor[best]++
		steps++
		for _, rp := range f.resps[st.respLo:st.respHi] {
			e.ready.Push(rp.id, rp.release)
		}
		if settle {
			if e.cfg.Scaling {
				// Serial scaled fence: a step runs only with an empty
				// ready queue; after it, every response is consumed in
				// release order (jump, consume, then drain anything the
				// jump matured) before the next step.
				for {
					e.deliverMaturedScaled()
					if e.ready.Len() == 0 {
						break
					}
					it := e.ready.Min()
					e.ts.JumpProcTo(clock.Cycles(it.release))
					e.consumeScaled(it.id)
				}
			} else {
				// Serial unscaled fence: the loop top delivers every
				// release matured by the frozen wall clock after each step.
				e.drainMaturedUnscaled()
			}
		}
	}
	// Commutative effects: apply once per channel.
	if e.cfg.Scaling {
		for _, ch := range active {
			f := &r.fx[ch]
			e.ts.AddGlobal(f.global)
			if f.maxRel > e.maxRelease {
				e.maxRelease = f.maxRel
			}
			// chanMC is monotone, so the final chain value is the maximum
			// the per-step RaiseMCTime calls would have reached.
			e.ts.RaiseMCTime(e.chanMC[ch])
		}
	} else {
		for _, ch := range active {
			if f := &r.fx[ch]; f.maxWall > e.maxWall {
				e.maxWall = f.maxWall
			}
		}
	}
	if steps > 0 {
		e.shardRounds++
		e.shardSteps += int64(steps)
	}
	return steps > 0, nil
}
