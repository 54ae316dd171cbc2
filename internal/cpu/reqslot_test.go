package cpu

import (
	"testing"

	"easydram/internal/mem"
	"easydram/internal/workload"
)

// Step reuses reqScratch's slots and its own Outcome from step to step,
// writing each in place. These tests pin that nothing a previous step
// wrote survives into the next one.

// TestDemandMissAfterFlushIsNotPosted: a flushed dirty line's writeback
// takes slot 0 with Posted set; the demand miss that next takes slot 0
// must be a plain, non-posted read.
func TestDemandMissAfterFlushIsNotPosted(t *testing.T) {
	const line, next = 0x40, 0x100040
	ops := []workload.Op{
		{Kind: workload.OpStore, Addr: line},
		{Kind: workload.OpFlush, Addr: line},
		{Kind: workload.OpLoad, Addr: next},
	}
	c := newTestCore(t, CortexA57(), ops)
	out := c.Step(0, 0)
	c.Deliver(out.Reqs[0].ID)
	out = c.Step(1, 0)
	if len(out.Reqs) != 1 || out.Reqs[0].Kind != mem.Writeback || !out.Reqs[0].Posted {
		t.Fatalf("flush of a dirty line: reqs %+v, want one posted writeback", out.Reqs)
	}
	out = c.Step(2, 0)
	want := mem.Request{ID: out.Reqs[0].ID, Kind: mem.Read, Addr: next}
	if len(out.Reqs) != 1 || out.Reqs[0] != want {
		t.Fatalf("demand miss after the flush: reqs %+v, want [%+v]", out.Reqs, want)
	}
	if out.Fence || out.Mark || out.Finished {
		t.Fatalf("demand miss after the flush: outcome %+v carries a flag", *out)
	}
}

// TestMissAfterWritebacksIssuesOneRequest: a miss that evicts dirty lines
// fills slots 1.. with writebacks; the next miss, which evicts nothing,
// must issue its demand read alone.
func TestMissAfterWritebacksIssuesOneRequest(t *testing.T) {
	// Stores 64 KiB apart share one L1 set and one L2 set (32 KiB 4-way
	// L1, 512 KiB 8-way L2), so they soon evict dirty lines to memory. The
	// load's line sits in a set nothing else touches.
	const stores = 32
	ops := make([]workload.Op, 0, stores+1)
	for k := range stores {
		ops = append(ops, workload.Op{Kind: workload.OpStore, Addr: uint64(k) << 16})
	}
	const load = 1<<30 + 7*64
	ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: load})
	c := newTestCore(t, CortexA57(), ops)
	m := &memStub{}
	sawWritebacks := false
	for {
		out := m.step(c, 0)
		if out.Finished {
			t.Fatal("stream ended before the load's miss")
		}
		if len(out.Reqs) == 0 {
			continue
		}
		if out.Reqs[0].Addr != load {
			if len(out.Reqs) > 1 {
				sawWritebacks = true
			}
			continue
		}
		if !sawWritebacks {
			t.Fatal("no store miss evicted a dirty line to memory")
		}
		if len(out.Reqs) != 1 || out.Reqs[0].Kind != mem.Read {
			t.Fatalf("clean miss after dirty evictions: reqs %+v, want one read", out.Reqs)
		}
		return
	}
}
