package cpu

import (
	"easydram/internal/clock"
	"easydram/internal/snapshot"
	"easydram/internal/workload"
)

// Checkpoint hooks. Checkpoints are taken only at engine quiescent points
// (no outstanding misses, no pending fence), so the core serializes just
// its persistent execution position: the stream replay count, the current
// op (quiescence can land mid-compute-op or between a RowClone's fence and
// its issue), the ID allocator, and statistics. The op stream itself is a
// deterministic generator — restore rebuilds it and fast-forwards to the
// recorded position.

// Quiescent reports whether the core holds no in-flight machinery: no
// outstanding misses, no pending fence, no dependence target. The engine
// requires it (alongside its own empty queues) before taking a checkpoint.
func (c *Core) Quiescent() bool {
	return len(c.outstanding) == 0 && !c.fencePending && c.lastLoadMiss == 0
}

// SaveState serializes the core's persistent state. Call only when
// Quiescent().
func (c *Core) SaveState(e *snapshot.Enc) {
	// Between ops the fields are those of the op last run (zeros once the
	// stream is exhausted); LoadState ignores them then.
	var op workload.Op
	if c.next > 0 {
		op = c.win[c.next-1]
	}
	e.U64(c.opsConsumed)
	e.Bool(c.opValid)
	e.Byte(byte(op.Kind))
	e.I64(op.N)
	e.U64(op.Addr)
	e.U64(op.Src)
	e.Bool(op.Dep)
	e.I64(int64(c.computeRemaining))
	e.U64(c.nextID)
	e.Bool(c.rcFenced)
	s := &c.stats
	for _, v := range []int64{
		s.Instructions, s.Loads, s.Stores, s.ComputeCycles,
		s.L1Hits, s.L2Hits, s.MemReads, s.MemFills,
		s.Writebacks, s.Flushes, s.RowClones, s.Prefetches,
		int64(s.StallCycles),
	} {
		e.I64(v)
	}
}

// LoadState restores state written by SaveState into a freshly built core,
// fast-forwarding its (rebuilt) op stream past the consumed ops. The
// stream must be the same kernel the checkpointed run executed; a shorter
// stream fails the decoder.
func (c *Core) LoadState(d *snapshot.Dec) {
	n := d.U64()
	c.opValid = d.Bool()
	// The op becomes a one-op window: Step resumes it in place when it is
	// in flight, and takes the stream's next window after it.
	c.one[0] = workload.Op{Kind: workload.OpKind(d.Byte()), N: d.I64(), Addr: d.U64(), Src: d.U64(), Dep: d.Bool()}
	c.win, c.next = c.one[:], 1
	c.computeRemaining = clock.Cycles(d.I64())
	c.nextID = d.U64()
	c.rcFenced = d.Bool()
	s := &c.stats
	for _, p := range []*int64{
		&s.Instructions, &s.Loads, &s.Stores, &s.ComputeCycles,
		&s.L1Hits, &s.L2Hits, &s.MemReads, &s.MemFills,
		&s.Writebacks, &s.Flushes, &s.RowClones, &s.Prefetches,
	} {
		*p = d.I64()
	}
	s.StallCycles = clock.Cycles(d.I64())
	if d.Err() != nil {
		return
	}
	if c.nextID == 0 {
		d.Failf("cpu: zero request-ID allocator")
		return
	}
	var skip workload.Op
	for i := uint64(0); i < n; i++ {
		if !c.strm.Next(&skip) {
			d.Failf("cpu: stream exhausted at op %d of %d during replay", i, n)
			return
		}
	}
	c.opsConsumed = n
}
