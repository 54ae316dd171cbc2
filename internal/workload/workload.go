// Package workload generates the memory-operation streams the modelled
// processors execute: the 28 PolyBench kernels used for validation, the
// lmbench memory-read-latency microbenchmark, and the Copy/Init RowClone
// microbenchmarks from the paper's case studies.
//
// Kernels are written as ordinary nested Go loops that emit Ops through a
// Gen; a Stream adapter runs the kernel body in a goroutine and hands the
// consumer batched op slabs, so kernel code stays readable and the channel
// hop is paid once per 4096-op slab. What remains per op is the producer's
// write into the slab and the consumer's read of it: emitters write in
// place so the former does not stall, and a consumer that takes ops
// through Window reads them in place, with no copy (see ARCHITECTURE.md,
// "Op streams").
package workload

import (
	"fmt"
	"sync"
)

// OpKind classifies one processor operation.
type OpKind uint8

// Operation kinds.
const (
	// OpCompute represents N back-to-back non-memory instructions.
	OpCompute OpKind = iota + 1
	// OpLoad reads the line containing Addr.
	OpLoad
	// OpStore writes the line containing Addr (write-allocate).
	OpStore
	// OpFlush writes the line containing Addr back to DRAM and invalidates
	// it (EasyDRAM's memory-mapped CLFLUSH register).
	OpFlush
	// OpRowClone asks the memory controller to copy row Src to row Addr.
	OpRowClone
	// OpBarrier waits until every outstanding request (including posted
	// writebacks) has completed.
	OpBarrier
	// OpMark records the current processor cycle into the run result
	// (measurement window boundary). It implies no memory activity.
	OpMark
)

// String names the operation kind for logs and error messages.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpFlush:
		return "flush"
	case OpRowClone:
		return "rowclone"
	case OpBarrier:
		return "barrier"
	case OpMark:
		return "mark"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one processor operation. Its field order, and so its 40-byte
// size, is deliberate: see ARCHITECTURE.md, "Op streams".
type Op struct {
	Kind OpKind
	// N is the (non-negative) instruction count for OpCompute.
	N int64
	// Addr is the target byte address (load/store/flush/rowclone dest).
	Addr uint64
	// Src is the RowClone source address.
	Src uint64
	// Dep marks an operation whose address depends on the most recent
	// load's value (pointer chase); it cannot issue until that load
	// completes.
	Dep bool
}

// Stream supplies ops in program order.
type Stream interface {
	// Next fills op and reports whether an op was produced.
	Next(op *Op) bool
	// Close releases resources; the stream must not be used afterwards.
	Close()
}

// Kernel is a named op-stream factory, so a kernel can be run multiple
// times (once per system configuration).
type Kernel struct {
	Name string
	// Body emits the kernel's operations.
	Body func(g *Gen)
}

// Stream starts the kernel body and returns its op stream. A kernel
// without a body yields an empty stream and starts no goroutine.
func (k Kernel) Stream() Stream {
	if k.Body == nil {
		return NewSliceStream(nil)
	}
	return newGoStream(k.Body)
}

// Gen is the emission context handed to kernel bodies. It fills the
// stream's current slab in place: every emitter writes its op literal
// straight into the slot returned by slot, so no Op travels by value
// through a call (see ARCHITECTURE.md, "Op streams").
type Gen struct {
	// buf is the slab being filled, at its full length; buf[:n] holds the
	// ops written so far. s is the stream the slab is handed to.
	buf []Op
	n   int
	// lim is the fill index at which slot leaves its fast path: len(buf),
	// or 0 while compute is pending, so one compare covers both the full
	// slab and the coalesced compute op owed before the next op.
	lim int
	s   *goStream
	// aborted is set once the consumer has closed the stream; later ops
	// overwrite buf and are dropped.
	aborted bool
	// pendingCompute coalesces consecutive Compute emissions.
	pendingCompute int64
}

// slot returns the next free op slot. It is small enough to inline into
// every emitter: the pending compute op and the slab handoff are taken out
// of line by makeRoom.
func (g *Gen) slot() *Op {
	if g.n >= g.lim {
		g.makeRoom()
	}
	g.n++
	return &g.buf[g.n-1]
}

// makeRoom writes the pending compute op, if any, and hands a full slab to
// the consumer, so that buf[n] is free and slot's fast path holds again.
//
//go:noinline
func (g *Gen) makeRoom() {
	if g.pendingCompute > 0 {
		if g.n == len(g.buf) {
			g.spill()
		}
		g.buf[g.n] = Op{Kind: OpCompute, N: g.pendingCompute}
		g.n++
		g.pendingCompute = 0
	}
	if g.n == len(g.buf) {
		g.spill()
	}
	g.lim = len(g.buf)
}

// spill hands the full slab to the consumer and starts a fresh one.
func (g *Gen) spill() {
	if !g.aborted {
		select {
		case g.s.ch <- g.buf[:g.n]:
			g.buf = g.s.nextSlab()
			g.n = 0
			return
		case <-g.s.stop:
			g.aborted = true
		}
	}
	g.n = 0
}

// Compute emits n instructions of non-memory work (coalesced). A sum that
// would overflow int64 emits the pending op first and starts a new one.
func (g *Gen) Compute(n int64) {
	if n > 0 {
		if g.pendingCompute+n < 0 {
			g.makeRoom()
		}
		g.pendingCompute += n
		g.lim = 0
	}
}

// Load emits a load of addr.
func (g *Gen) Load(addr uint64) {
	*g.slot() = Op{Kind: OpLoad, Addr: addr}
}

// LoadDep emits a load whose address depends on the previous load.
func (g *Gen) LoadDep(addr uint64) {
	*g.slot() = Op{Kind: OpLoad, Addr: addr, Dep: true}
}

// Store emits a store to addr.
func (g *Gen) Store(addr uint64) {
	*g.slot() = Op{Kind: OpStore, Addr: addr}
}

// Flush emits a cache-line flush of addr.
func (g *Gen) Flush(addr uint64) {
	*g.slot() = Op{Kind: OpFlush, Addr: addr}
}

// RowClone emits an in-DRAM copy of the row at src to the row at dst.
func (g *Gen) RowClone(src, dst uint64) {
	*g.slot() = Op{Kind: OpRowClone, Addr: dst, Src: src}
}

// Barrier emits a full memory barrier.
func (g *Gen) Barrier() {
	*g.slot() = Op{Kind: OpBarrier}
}

// Mark emits a measurement-window boundary (implies a barrier first, so a
// window never charges work from outside it).
func (g *Gen) Mark() {
	g.Barrier()
	*g.slot() = Op{Kind: OpMark}
}

// slabSize is the op batch size moved per channel operation.
const slabSize = 4096

// goStream runs a kernel body in a goroutine and streams op slabs. Spent
// slabs go back to the producer through the free channel while it has
// room; the rest are dropped, and the producer allocates whenever free is
// empty (ARCHITECTURE.md, "Op streams", says why not every slab is
// recycled).
type goStream struct {
	ch   chan []Op
	free chan []Op
	stop chan struct{}
	buf  []Op
	idx  int
	done bool
	// stopOnce guards the close of stop: the producer goroutine selects on
	// the stop field concurrently, so Close must never write the field
	// itself (an early abort — rejected restore blob, cycle-cap bail — can
	// close the stream while the producer is mid-emit).
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newGoStream(body func(*Gen)) *goStream {
	s := &goStream{
		ch:   make(chan []Op, 2),
		free: make(chan []Op, 2),
		stop: make(chan struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.ch)
		g := &Gen{buf: s.nextSlab(), lim: slabSize, s: s}
		body(g)
		if n := g.pendingCompute; n > 0 {
			// Cleared first, so slot only makes room for the op.
			g.pendingCompute = 0
			*g.slot() = Op{Kind: OpCompute, N: n}
		}
		if !g.aborted && g.n > 0 {
			select {
			case s.ch <- g.buf[:g.n]:
			case <-s.stop:
			}
		}
	}()
	return s
}

// nextSlab returns a slab for the producer to fill, at its full length:
// recycled when the consumer has returned one, else new.
func (s *goStream) nextSlab() []Op {
	select {
	case slab := <-s.free:
		return slab[:slabSize]
	default:
		return make([]Op, slabSize)
	}
}

func (s *goStream) Next(op *Op) bool {
	if s.done || s.idx >= len(s.buf) && !s.fetch() {
		return false
	}
	*op = s.buf[s.idx]
	s.idx++
	return true
}

// window returns the unread rest of the current slab, fetching the next
// slab when none is left, and counts it as read.
func (s *goStream) window() []Op {
	if s.done || s.idx >= len(s.buf) && !s.fetch() {
		return nil
	}
	w := s.buf[s.idx:]
	s.idx = len(s.buf)
	return w
}

// fetch replaces the spent slab with the next one from the producer,
// reporting false once the stream is exhausted.
func (s *goStream) fetch() bool {
	// Recycle the spent slab before blocking on the next one; the
	// consumer never touches it again.
	if cap(s.buf) == slabSize {
		select {
		case s.free <- s.buf[:0]:
		default:
		}
	}
	slab, ok := <-s.ch
	if !ok {
		s.done = true
		return false
	}
	s.buf, s.idx = slab, 0
	return true
}

func (s *goStream) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		// Drain so the producer unblocks and exits.
		for range s.ch {
		}
		s.wg.Wait()
	})
	s.done = true
}

// Extent scans the kernel's op stream and reports one past the highest
// byte address it touches (used to size characterization ranges).
func Extent(k Kernel) uint64 {
	s := k.Stream()
	defer s.Close()
	var op Op
	var max uint64
	for s.Next(&op) {
		switch op.Kind {
		case OpLoad, OpStore, OpFlush:
			if end := op.Addr + 64; end > max {
				max = end
			}
		case OpRowClone:
			if end := op.Addr + 8192; end > max {
				max = end
			}
		}
	}
	return max
}

// Window returns the next unread ops of s and counts them as read, so a
// consumer can take ops in place instead of copying each out through Next.
// For the streams this package builds (Kernel.Stream, SliceStream, and
// OffsetStream over a Kernel.Stream) the window is the unread rest of the
// stream's current buffer: it aliases that buffer and stays valid until
// the next Window, Next or Close on s. Any other Stream gets exactly one
// op, read by one Next call into one[0], so a foreign stream is never read
// ahead of its consumer. An empty window means the stream is exhausted.
func Window(s Stream, one *[1]Op) []Op {
	switch s := s.(type) {
	case *goStream:
		return s.window()
	case *SliceStream:
		w := s.ops[s.idx:]
		s.idx = len(s.ops)
		return w
	case *offsetStream:
		// A kernel stream's slab is the consumer's until it is recycled,
		// and the producer rewrites every slot it reuses, so the window is
		// relocated in place. Over any other stream, one op as below.
		if g, ok := s.s.(*goStream); ok {
			w := g.window()
			for i := range w {
				s.relocate(&w[i])
			}
			return w
		}
	}
	if s.Next(&one[0]) {
		return one[:]
	}
	return nil
}

// SliceStream adapts a fixed []Op (tests and microbenchmarks).
type SliceStream struct {
	ops []Op
	idx int
}

// NewSliceStream returns a Stream over ops.
func NewSliceStream(ops []Op) *SliceStream { return &SliceStream{ops: ops} }

// Next implements Stream.
func (s *SliceStream) Next(op *Op) bool {
	if s.idx >= len(s.ops) {
		return false
	}
	*op = s.ops[s.idx]
	s.idx++
	return true
}

// Close implements Stream.
func (s *SliceStream) Close() {}

var _ Stream = (*goStream)(nil)
var _ Stream = (*SliceStream)(nil)
