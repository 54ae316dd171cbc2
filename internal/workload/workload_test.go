package workload

import (
	"runtime"
	"slices"
	"testing"
)

func collect(t *testing.T, k Kernel) []Op {
	t.Helper()
	s := k.Stream()
	defer s.Close()
	var ops []Op
	var op Op
	for s.Next(&op) {
		ops = append(ops, op)
	}
	return ops
}

func TestGenCoalescesCompute(t *testing.T) {
	k := Kernel{Name: "c", Body: func(g *Gen) {
		g.Compute(3)
		g.Compute(4)
		g.Load(0)
		g.Compute(5)
	}}
	ops := collect(t, k)
	if len(ops) != 3 {
		t.Fatalf("ops = %v", ops)
	}
	if ops[0].Kind != OpCompute || ops[0].N != 7 {
		t.Fatalf("coalesced compute = %+v", ops[0])
	}
	if ops[2].Kind != OpCompute || ops[2].N != 5 {
		t.Fatalf("trailing compute = %+v", ops[2])
	}
}

func TestGenOps(t *testing.T) {
	k := Kernel{Name: "all", Body: func(g *Gen) {
		g.Load(64)
		g.LoadDep(128)
		g.Compute(9)
		g.Store(192)
		g.Flush(256)
		g.RowClone(4096, 8192)
		g.Barrier()
		g.Mark()
	}}
	// Every field of every op is compared, so an emitter that drops a field
	// or fills the wrong one fails here, not only one that gets Kind wrong.
	want := []Op{
		{Kind: OpLoad, Addr: 64},
		{Kind: OpLoad, Addr: 128, Dep: true},
		{Kind: OpCompute, N: 9},
		{Kind: OpStore, Addr: 192},
		{Kind: OpFlush, Addr: 256},
		{Kind: OpRowClone, Addr: 8192, Src: 4096},
		{Kind: OpBarrier},
		{Kind: OpBarrier},
		{Kind: OpMark},
	}
	ops := collect(t, k)
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d: %v", len(ops), len(want), ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

func TestGoStreamMatchesDirectEmission(t *testing.T) {
	// Stream a kernel large enough to cross several slabs and verify order.
	k := Kernel{Name: "big", Body: func(g *Gen) {
		for i := 0; i < 3*slabSize; i++ {
			g.Load(uint64(i) * 64)
		}
	}}
	ops := collect(t, k)
	if len(ops) != 3*slabSize {
		t.Fatalf("streamed %d ops, want %d", len(ops), 3*slabSize)
	}
	for i, op := range ops {
		if op.Addr != uint64(i)*64 {
			t.Fatalf("op %d out of order: %+v", i, op)
		}
	}
}

func TestStreamCloseMidway(t *testing.T) {
	k := Kernel{Name: "huge", Body: func(g *Gen) {
		for i := 0; i < 100*slabSize; i++ {
			g.Load(uint64(i))
		}
	}}
	s := k.Stream()
	var op Op
	for i := 0; i < 10; i++ {
		if !s.Next(&op) {
			t.Fatalf("stream ended early")
		}
	}
	s.Close() // must unblock and stop the producer goroutine
	if s.Next(&op) {
		t.Fatalf("closed stream must not produce")
	}
}

// TestStreamSlabBoundaries streams kernels whose last op lands just before,
// on, and just past a slab boundary, including a trailing coalesced compute
// op that fills or spills the final slab.
func TestStreamSlabBoundaries(t *testing.T) {
	for _, n := range []int{slabSize - 1, slabSize, slabSize + 1, 2 * slabSize} {
		for _, trailing := range []bool{false, true} {
			k := Kernel{Name: "edge", Body: func(g *Gen) {
				for i := 0; i < n; i++ {
					g.Load(uint64(i) * 64)
				}
				if trailing {
					g.Compute(5)
				}
			}}
			ops := collect(t, k)
			want := n
			if trailing {
				want++
			}
			if len(ops) != want {
				t.Fatalf("n=%d trailing=%v: streamed %d ops, want %d", n, trailing, len(ops), want)
			}
			if trailing && ops[n] != (Op{Kind: OpCompute, N: 5}) {
				t.Fatalf("n=%d: trailing op = %+v", n, ops[n])
			}
		}
	}
}

// TestStreamCloseAtSlabBoundary closes a stream right after the consumer has
// taken exactly one full slab, while the producer is blocked handing over
// later slabs.
func TestStreamCloseAtSlabBoundary(t *testing.T) {
	k := Kernel{Name: "huge", Body: func(g *Gen) {
		for i := 0; i < 10*slabSize; i++ {
			g.Load(uint64(i) * 64)
		}
	}}
	s := k.Stream()
	var op Op
	for i := 0; i < slabSize; i++ {
		if !s.Next(&op) || op.Addr != uint64(i)*64 {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
	s.Close()
	if s.Next(&op) {
		t.Fatalf("closed stream must not produce")
	}
}

// TestStreamCloseAfterProducerExit closes streams whose producer goroutine
// has already returned: once with its slabs still queued unread, once after
// the consumer drained them.
func TestStreamCloseAfterProducerExit(t *testing.T) {
	k := Kernel{Name: "short", Body: func(g *Gen) {
		for i := 0; i < slabSize+10; i++ { // two slabs: both fit the channel
			g.Load(uint64(i))
		}
	}}
	var op Op

	queued := k.Stream()
	queued.(*goStream).wg.Wait() // producer has exited; its slabs are queued
	queued.Close()
	if queued.Next(&op) {
		t.Fatalf("closed stream must not produce")
	}

	drained := k.Stream()
	n := 0
	for drained.Next(&op) {
		n++
	}
	if n != slabSize+10 {
		t.Fatalf("drained %d ops, want %d", n, slabSize+10)
	}
	drained.Close()
	drained.Close() // idempotent
	if drained.Next(&op) {
		t.Fatalf("closed stream must not produce")
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Op{{Kind: OpLoad, Addr: 1}, {Kind: OpStore, Addr: 2}})
	var op Op
	if !s.Next(&op) || op.Addr != 1 {
		t.Fatalf("first op wrong")
	}
	if !s.Next(&op) || op.Addr != 2 {
		t.Fatalf("second op wrong")
	}
	if s.Next(&op) {
		t.Fatalf("exhausted stream must stop")
	}
	s.Close()
}

func TestExtent(t *testing.T) {
	k := Kernel{Name: "e", Body: func(g *Gen) {
		g.Load(100)
		g.Store(5000)
		g.RowClone(0, 16384)
	}}
	if got := Extent(k); got != 16384+8192 {
		t.Fatalf("Extent = %d, want %d", got, 16384+8192)
	}
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpCompute: "compute", OpLoad: "load", OpStore: "store",
		OpFlush: "flush", OpRowClone: "rowclone", OpBarrier: "barrier", OpMark: "mark",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestArenaRowAlignment(t *testing.T) {
	ar := NewArena(0)
	a := ar.Mat(10, 10)
	b := ar.Vec(3)
	if a.Base%arenaAlign != 0 || b.Base%arenaAlign != 0 {
		t.Fatalf("allocations not row-aligned: %x %x", a.Base, b.Base)
	}
	if b.Base < a.Base+10*10*8 {
		t.Fatalf("allocations overlap")
	}
	if a.At(2, 3) != a.Base+(2*10+3)*8 {
		t.Fatalf("Mat.At wrong")
	}
	c := ar.Cube(2, 3, 4)
	if c.At(1, 2, 3) != c.Base+((1*3+2)*4+3)*8 {
		t.Fatalf("Cube.At wrong")
	}
}

func TestTrafficGenerators(t *testing.T) {
	cases := []Kernel{
		StreamTriad(256),
		RandomAccess(1<<20, 500),
		Strided(0, 4096, 100),
		ComputeBound(50, 64),
	}
	for _, k := range cases {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			ops := collect(t, k)
			if len(ops) == 0 {
				t.Fatalf("no ops emitted")
			}
			loads := 0
			for _, op := range ops {
				if op.Kind == OpLoad {
					loads++
				}
			}
			if loads == 0 {
				t.Fatalf("no loads emitted")
			}
		})
	}
}

func TestRandomAccessDeterministic(t *testing.T) {
	a := collect(t, RandomAccess(1<<16, 100))
	b := collect(t, RandomAccess(1<<16, 100))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random-access stream not reproducible at op %d", i)
		}
	}
}

func TestRandomAccessSpreads(t *testing.T) {
	ops := collect(t, RandomAccess(1<<20, 1000))
	distinct := map[uint64]bool{}
	for _, op := range ops {
		if op.Kind == OpLoad {
			distinct[op.Addr] = true
		}
	}
	if len(distinct) < 500 {
		t.Fatalf("only %d distinct addresses across 1000 random accesses", len(distinct))
	}
}

// TestKernelStreamNilBody checks that a kernel without a body yields an
// empty stream and starts no producer goroutine, so a consumer that never
// reads it cannot leave a goroutine to crash on the nil body.
func TestKernelStreamNilBody(t *testing.T) {
	before := runtime.NumGoroutine()
	s := Kernel{Name: "empty"}.Stream()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("Stream started %d goroutines", n-before)
	}
	var op Op
	if s.Next(&op) || s.Next(&op) {
		t.Fatalf("a nil body produced op %+v", op)
	}
	s.Close()
	if Extent(Kernel{Name: "empty"}) != 0 {
		t.Fatalf("a nil body has a nonzero extent")
	}
}

// readWindows takes every op of s through Window, taking a few through
// Next in between so the two paths interleave, and checks that each
// window is non-empty until the end.
func readWindows(t *testing.T, s Stream) (ops []Op, windows int) {
	t.Helper()
	var one [1]Op
	var op Op
	for {
		w := Window(s, &one)
		if len(w) == 0 {
			break
		}
		windows++
		ops = append(ops, w...)
		if windows%3 == 0 && s.Next(&op) {
			ops = append(ops, op)
		}
	}
	if len(Window(s, &one)) != 0 || s.Next(&op) {
		t.Fatalf("exhausted stream produced again")
	}
	return ops, windows
}

// TestStreamWindowMatchesNext reads kernel, slice and relocated streams
// through Window and through Next: the same ops in the same order. Kernel
// streams hand out whole slabs, a SliceStream its whole slice, and any
// other stream one op per window.
func TestStreamWindowMatchesNext(t *testing.T) {
	k := Kernel{Name: "mixed", Body: func(g *Gen) {
		for i := 0; i < 3*slabSize+17; i++ {
			g.Load(uint64(i) * 64)
			if i%5 == 0 {
				g.Compute(int64(i))
			}
			if i%1000 == 0 {
				g.Mark()
			}
		}
	}}
	want := collect(t, k)
	eq := func(name string, got []Op) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d ops, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: op %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	s := k.Stream()
	got, windows := readWindows(t, s)
	s.Close()
	eq("kernel", got)
	if windows > 2*(len(want)/slabSize+1) {
		t.Fatalf("kernel stream: %d windows for %d ops", windows, len(want))
	}

	got, windows = readWindows(t, NewSliceStream(want))
	eq("slice", got)
	if windows != 1 {
		t.Fatalf("slice stream: %d windows, want 1", windows)
	}

	// A relocated kernel stream is relocated in place, slab by slab; a
	// relocated SliceStream hands out one op per window, leaving the
	// caller's slice untouched.
	const delta = 1 << 30
	unshift := func(ops []Op) []Op {
		out := slices.Clone(ops)
		for i := range out {
			if out[i].Kind == OpLoad {
				out[i].Addr -= delta
			}
		}
		return out
	}
	off := OffsetStream(k.Stream(), delta)
	got, windows = readWindows(t, off)
	off.Close()
	eq("offset kernel", unshift(got))
	if windows > 2*(len(want)/slabSize+1) {
		t.Fatalf("offset kernel stream: %d windows for %d ops", windows, len(want))
	}
	src := slices.Clone(want)
	got, windows = readWindows(t, OffsetStream(NewSliceStream(src), delta))
	eq("offset slice", unshift(got))
	if windows+windows/3 < len(want) || windows > len(want) {
		t.Fatalf("offset slice stream: %d windows for %d ops, want one op each", windows, len(want))
	}
	eq("offset slice source", src)
}

// TestStreamWindowAfterClose closes a kernel stream mid-slab, after a
// window: Window and Next report it exhausted from then on.
func TestStreamWindowAfterClose(t *testing.T) {
	k := Kernel{Name: "huge", Body: func(g *Gen) {
		for i := 0; i < 10*slabSize; i++ {
			g.Load(uint64(i) * 64)
		}
	}}
	s := k.Stream()
	var op Op
	var one [1]Op
	if !s.Next(&op) {
		t.Fatal("stream ended early")
	}
	if w := Window(s, &one); len(w) != slabSize-1 || w[0].Addr != 64 {
		t.Fatalf("window after one Next: %d ops from %+v", len(w), w[0])
	}
	s.Close()
	if len(Window(s, &one)) != 0 || s.Next(&op) {
		t.Fatal("closed stream must not produce")
	}
}
