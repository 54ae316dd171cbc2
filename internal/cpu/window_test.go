package cpu

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/workload"
)

// nextOnly hides a stream's concrete type, so workload.Window hands the
// core one op per Next call. It counts the calls that produced an op and
// all calls.
type nextOnly struct {
	s         workload.Stream
	ops, hits int
}

func (n *nextOnly) Next(op *workload.Op) bool {
	n.hits++
	if !n.s.Next(op) {
		return false
	}
	n.ops++
	return true
}

func (n *nextOnly) Close() { n.s.Close() }

// memStub answers every non-posted request lat cycles after the step that
// issued it (lat 0 answers at once) and completes every fence at once once
// the pending responses are in. It keeps Step's batching contract: each
// budget is capped at the next pending release.
type memStub struct {
	lat     clock.Cycles
	now     clock.Cycles
	pending []stubResp
}

type stubResp struct {
	id uint64
	at clock.Cycles
}

// deliver hands the core every response released by the stub's cycle.
func (m *memStub) deliver(c *Core) {
	m.pending = slices.DeleteFunc(m.pending, func(r stubResp) bool {
		if r.at <= m.now {
			c.Deliver(r.id)
			return true
		}
		return false
	})
}

// step runs one Step of c and settles its waits and fences.
func (m *memStub) step(c *Core, budget clock.Cycles) Outcome {
	m.deliver(c)
	for _, r := range m.pending {
		if d := r.at - m.now; budget <= 0 || d < budget {
			budget = d
		}
	}
	out := c.Step(m.now, budget)
	m.now += out.Cycles
	for _, r := range out.Reqs {
		if !r.Posted {
			m.pending = append(m.pending, stubResp{r.ID, m.now + m.lat})
		}
	}
	if out.WaitID != 0 {
		for _, r := range m.pending {
			if r.id == out.WaitID {
				m.now = max(m.now, r.at)
			}
		}
		m.deliver(c)
	}
	if out.Fence {
		for _, r := range m.pending {
			m.now = max(m.now, r.at)
		}
		m.deliver(c)
		c.FenceDone()
	}
	return *out
}

// windowTestOps is a short mixed stream: hits, misses to distinct lines, a
// dependent load, stores, flushes, a RowClone, a barrier and a mark.
func windowTestOps() []workload.Op {
	var ops []workload.Op
	for i := 0; i < 40; i++ {
		addr := uint64(i%7) << 20
		ops = append(ops,
			workload.Op{Kind: workload.OpCompute, N: int64(i % 5)},
			workload.Op{Kind: workload.OpLoad, Addr: addr},
			workload.Op{Kind: workload.OpLoad, Addr: addr + 64, Dep: i%3 == 0},
			workload.Op{Kind: workload.OpStore, Addr: addr + 128})
		switch i % 10 {
		case 3:
			ops = append(ops, workload.Op{Kind: workload.OpFlush, Addr: addr + 128})
		case 6:
			ops = append(ops, workload.Op{Kind: workload.OpRowClone, Addr: 1 << 26, Src: 2 << 26})
		case 9:
			ops = append(ops, workload.Op{Kind: workload.OpBarrier}, workload.Op{Kind: workload.OpMark})
		}
	}
	return ops
}

// TestStreamWindowForeignNoReadAhead steps cores over a Next-only stream
// and checks, after every Step, that the stream was read exactly as far as
// the core consumed: one Next per op and none ahead, so a foreign stream
// that tracks the op it handed out last stays right. With truncation the
// stream must not be read past the cap either.
func TestStreamWindowForeignNoReadAhead(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"ooo", CortexA57},
		{"in-order", Rocket50},
		{"ooo-truncated", func() Config { c := CortexA57(); c.MaxInstructions = 150; return c }},
	} {
		for _, lat := range []clock.Cycles{0, 200} {
			t.Run(fmt.Sprintf("%s/lat%d", tc.name, lat), func(t *testing.T) {
				hier, err := cache.NewHierarchy(cache.JetsonNanoHier())
				if err != nil {
					t.Fatal(err)
				}
				strm := &nextOnly{s: workload.NewSliceStream(windowTestOps())}
				c, err := New(tc.cfg(), hier, strm)
				if err != nil {
					t.Fatal(err)
				}
				m := &memStub{lat: lat}
				for step := 0; ; step++ {
					if step > 100000 {
						t.Fatal("core did not finish")
					}
					out := m.step(c, 37)
					if uint64(strm.ops) != c.opsConsumed {
						t.Fatalf("step %d: stream produced %d ops, core consumed %d", step, strm.ops, c.opsConsumed)
					}
					if out.Finished {
						break
					}
					if strm.hits != strm.ops {
						t.Fatalf("step %d: %d Next calls for %d ops before the stream ended", step, strm.hits, strm.ops)
					}
				}
				if tc.cfg().MaxInstructions > 0 && (strm.ops >= len(windowTestOps()) || strm.hits != strm.ops) {
					t.Fatalf("truncated run made %d Next calls for %d of %d ops", strm.hits, strm.ops, len(windowTestOps()))
				}
			})
		}
	}
}

// twinStep steps the window-fed core a and the Next-fed core b once each
// with the same budget and reports the first difference in outcome,
// statistics, consumed-op count or cycle.
func twinStep(ma, mb *memStub, a, b *Core, budget clock.Cycles) (Outcome, error) {
	oa, ob := ma.step(a, budget), mb.step(b, budget)
	switch {
	case !reflect.DeepEqual(oa, ob):
		return oa, fmt.Errorf("outcome %+v, Next-fed %+v", oa, ob)
	case a.Stats() != b.Stats():
		return oa, fmt.Errorf("stats %+v, Next-fed %+v", a.Stats(), b.Stats())
	case a.opsConsumed != b.opsConsumed:
		return oa, fmt.Errorf("opsConsumed %d, Next-fed %d", a.opsConsumed, b.opsConsumed)
	case ma.now != mb.now:
		return oa, fmt.Errorf("cycle %d, Next-fed %d", ma.now, mb.now)
	}
	return oa, nil
}

// fuzzConfig decodes the core model a fuzz input runs on.
func fuzzConfig(b byte) Config {
	cfg := CortexA57()
	if b&1 != 0 {
		cfg = Rocket50()
	}
	cfg.MLP = 1 + int(b>>1&3)
	cfg.ROBWindow = clock.Cycles(16 << (b >> 3 & 3))
	cfg.NextLinePrefetch = b&0x20 != 0
	if b&0x40 != 0 {
		cfg.MaxInstructions = 3000
	}
	cfg.IssueWidth = 2 + int(b>>7) // 3 takes the divide path
	return cfg
}

// fuzzOps decodes bytes into ops, four bytes each: a kind, then operand
// bytes. Addresses fall on 64 lines spread over a few sets, so the stream
// mixes L1 hits, L2 hits and misses.
func fuzzOps(data []byte) []workload.Op {
	var ops []workload.Op
	for ; len(data) >= 4; data = data[4:] {
		k, x, y := data[0], uint64(data[1]), uint64(data[2])
		addr := (x&63)<<6 | (y&7)<<18 | (y>>3&3)<<28
		op := workload.Op{Addr: addr, Dep: k&0x80 != 0}
		switch k & 7 {
		case 0:
			op = workload.Op{Kind: workload.OpCompute, N: int64(data[3]) * int64(1+y)}
		case 1, 5:
			op.Kind = workload.OpLoad
		case 2:
			op.Kind = workload.OpStore
		case 3:
			op.Kind = workload.OpFlush
		case 4:
			op = workload.Op{Kind: workload.OpRowClone, Addr: addr &^ 8191, Src: (addr + 8192) &^ 8191}
		case 6:
			op = workload.Op{Kind: workload.OpBarrier}
		case 7:
			op = workload.Op{Kind: workload.OpMark}
		}
		ops = append(ops, op)
	}
	return ops
}

// emit writes op through a Gen, as a kernel body would.
func emit(g *workload.Gen, op workload.Op) {
	switch op.Kind {
	case workload.OpCompute:
		g.Compute(op.N)
	case workload.OpLoad:
		if op.Dep {
			g.LoadDep(op.Addr)
		} else {
			g.Load(op.Addr)
		}
	case workload.OpStore:
		g.Store(op.Addr)
	case workload.OpFlush:
		g.Flush(op.Addr)
	case workload.OpRowClone:
		g.RowClone(op.Src, op.Addr)
	case workload.OpBarrier:
		g.Barrier()
	case workload.OpMark:
		g.Mark()
	}
}

// FuzzStepWindowMatchesNext steps twin cores over the same fuzzed ops and
// budgets: one takes its ops in place from a slab-backed stream (a
// SliceStream, or a kernel stream whose body repeats the ops past slab
// boundaries), the other through a Next-only wrapper of the same stream,
// one op per Next. Each runs over its own caches and a memory stub that
// answers at once or after a fuzzed latency. Outcomes, Stats, the consumed
// op count and the cycle must match after every Step.
func FuzzStepWindowMatchesNext(f *testing.F) {
	f.Add([]byte{0, 0, 7, 13, 0x01, 1, 0, 0, 0x81, 2, 0, 0, 0x02, 3, 0, 0, 0x00, 0, 200, 5, 0x03, 1, 0, 0})
	f.Add([]byte{0x05, 0x80, 9, 1, 0x11, 1, 0, 0, 0x81, 1, 0, 0, 0x06, 0, 0, 0, 0x07, 0, 0, 0, 0x04, 9, 3, 0})
	f.Add([]byte{0x40, 0x41, 3, 3, 0x01, 5, 1, 0, 0x01, 9, 2, 0, 0x01, 17, 3, 0, 0x02, 33, 4, 0, 0x00, 1, 9, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg, mode, lat := fuzzConfig(data[0]), data[1], clock.Cycles(data[2])*4
		budgets := data[3:]
		ops := fuzzOps(data[3:])
		if len(ops) == 0 || len(ops) > 256 {
			return
		}
		newStream := func() workload.Stream { return workload.NewSliceStream(ops) }
		if mode&1 != 0 {
			// Repeat the ops past a slab boundary or two.
			reps := 1 + int(mode>>1)*100/len(ops)
			newStream = func() workload.Stream {
				return workload.Kernel{Name: "fuzz", Body: func(g *workload.Gen) {
					for r := 0; r < reps; r++ {
						for _, op := range ops {
							emit(g, op)
						}
					}
				}}.Stream()
			}
		}
		newCore := func(s workload.Stream) *Core {
			// Small caches: the fuzzed lines evict and write back often.
			hier, err := cache.NewHierarchy(cache.HierConfig{L1Size: 1 << 10, L1Assoc: 2, L2Size: 4 << 10, L2Assoc: 4})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(cfg, hier, s)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		sa, sb := newStream(), &nextOnly{s: newStream()}
		defer sa.Close()
		defer sb.Close()
		a, b := newCore(sa), newCore(sb)
		ma, mb := &memStub{lat: lat}, &memStub{lat: lat}
		for step := 0; ; step++ {
			if step > 1<<20 {
				t.Fatal("cores did not finish")
			}
			// Budgets cycle through the input; 0 means unlimited.
			budget := clock.Cycles(budgets[step%len(budgets)])
			out, err := twinStep(ma, mb, a, b, budget)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if out.Finished {
				return
			}
		}
	})
}
