package cpu

import (
	"math"
	"slices"
	"testing"

	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/workload"
)

func newTestCore(t *testing.T, cfg Config, ops []workload.Op) *Core {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.JetsonNanoHier())
	if err != nil {
		t.Fatalf("hierarchy: %v", err)
	}
	c, err := New(cfg, hier, workload.NewSliceStream(ops))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := CortexA57()
	bad.Clock = clock.Clock{}
	if err := bad.Validate(); err == nil {
		t.Fatalf("missing clock must fail")
	}
	bad = CortexA57()
	bad.MLP = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("OoO core without MLP must fail")
	}
	bad = Rocket50()
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero issue width must fail")
	}
	if err := Rocket50().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}

func TestComputeRespectsBudgetAndWidth(t *testing.T) {
	cfg := CortexA57() // width 2
	c := newTestCore(t, cfg, []workload.Op{{Kind: workload.OpCompute, N: 100}})
	out := c.Step(0, 10)
	if out.Cycles != 10 {
		t.Fatalf("budgeted step consumed %d cycles, want 10", out.Cycles)
	}
	out = c.Step(10, 0)
	if out.Cycles != 40 { // ceil(100/2) - 10
		t.Fatalf("remaining compute = %d cycles, want 40", out.Cycles)
	}
	out = c.Step(50, 0)
	if !out.Finished {
		t.Fatalf("expected Finished, got %+v", out)
	}
	if c.Stats().Instructions != 100 {
		t.Fatalf("instructions = %d", c.Stats().Instructions)
	}
}

// TestComputeDecodeIsCeilDiv pins the compute-op decode to ceil(N/width),
// clamped to one cycle, on the shift path (power-of-two widths) and the
// divide path (width 3) alike.
func TestComputeDecodeIsCeilDiv(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 8} {
		cfg := CortexA57()
		cfg.IssueWidth = w
		c := newTestCore(t, cfg, nil)
		if pow2 := w&(w-1) == 0; (c.issueShift >= 0) != pow2 {
			t.Fatalf("width %d: issueShift = %d, power of two = %v", w, c.issueShift, pow2)
		}
		for _, n := range []int64{0, 1, int64(w) - 1, int64(w), int64(w) + 1, 1<<40 + 3, math.MaxInt64 - 1, math.MaxInt64} {
			want := n / int64(w)
			if n%int64(w) != 0 {
				want++
			}
			if got := c.computeCycles(n); int64(got) != want {
				t.Fatalf("width %d: computeCycles(%d) = %d, want %d", w, n, got, want)
			}
			// The same decode as Step charges it, including the clamp of a
			// zero-instruction op to one cycle.
			sc := newTestCore(t, cfg, []workload.Op{{Kind: workload.OpCompute, N: n}})
			sc.Step(0, 1)
			if want == 0 {
				want = 1
			}
			if got := sc.Stats().ComputeCycles; got != want {
				t.Fatalf("width %d, N %d: Step charged %d compute cycles, want %d", w, n, got, want)
			}
		}
	}
}

func TestInOrderBlocksOnMiss(t *testing.T) {
	c := newTestCore(t, Rocket50(), []workload.Op{{Kind: workload.OpLoad, Addr: 0x100000}})
	out := c.Step(0, 0)
	if len(out.Reqs) != 1 || out.Reqs[0].Kind != mem.Read {
		t.Fatalf("expected one read request, got %+v", out)
	}
	if out.WaitID != out.Reqs[0].ID {
		t.Fatalf("in-order core must block on its own miss")
	}
	c.Deliver(out.WaitID)
	if out := c.Step(1, 0); !out.Finished {
		t.Fatalf("expected Finished, got %+v", out)
	}
}

func TestOoOOverlapsUpToMLP(t *testing.T) {
	cfg := CortexA57()
	cfg.MLP = 3
	var ops []workload.Op
	for i := 0; i < 5; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: uint64(i) << 20})
	}
	c := newTestCore(t, cfg, ops)
	var ids []uint64
	now := clock.Cycles(0)
	for i := 0; i < 3; i++ {
		out := c.Step(now, 0)
		if len(out.Reqs) != 1 || out.WaitID != 0 {
			t.Fatalf("miss %d should issue without blocking: %+v", i, out)
		}
		ids = append(ids, out.Reqs[0].ID)
		now += out.Cycles
	}
	// Fourth miss: MSHRs exhausted, must wait for the oldest.
	out := c.Step(now, 0)
	if out.WaitID != ids[0] || len(out.Reqs) != 0 {
		t.Fatalf("MLP-full step = %+v, want wait on %d", out, ids[0])
	}
	c.Deliver(ids[0])
	out = c.Step(now, 0)
	if len(out.Reqs) != 1 {
		t.Fatalf("after delivery the core must issue again: %+v", out)
	}
}

func TestROBWindowStalls(t *testing.T) {
	cfg := CortexA57()
	cfg.ROBWindow = 16
	ops := []workload.Op{
		{Kind: workload.OpLoad, Addr: 1 << 20},
		{Kind: workload.OpCompute, N: 1000},
	}
	c := newTestCore(t, cfg, ops)
	out := c.Step(0, 0)
	id := out.Reqs[0].ID
	// Run compute until the window limit forces a stall.
	now := out.Cycles
	for {
		out = c.Step(now, 4)
		if out.WaitID == id {
			break
		}
		if out.Finished {
			t.Fatalf("finished without a ROB stall")
		}
		now += out.Cycles
		if now > 64 {
			t.Fatalf("no ROB stall within %d cycles of a 16-cycle window", now)
		}
	}
}

func TestDependentLoadBlocks(t *testing.T) {
	cfg := CortexA57()
	ops := []workload.Op{
		{Kind: workload.OpLoad, Addr: 1 << 20},
		{Kind: workload.OpLoad, Addr: 2 << 20, Dep: true},
	}
	c := newTestCore(t, cfg, ops)
	out := c.Step(0, 0)
	id := out.Reqs[0].ID
	out = c.Step(out.Cycles, 0)
	if out.WaitID != id {
		t.Fatalf("dependent load must wait for the producer, got %+v", out)
	}
	c.Deliver(id)
	out = c.Step(5, 0)
	if len(out.Reqs) != 1 {
		t.Fatalf("dependent load should issue after delivery: %+v", out)
	}
}

func TestStoreWriteAllocate(t *testing.T) {
	c := newTestCore(t, CortexA57(), []workload.Op{{Kind: workload.OpStore, Addr: 1 << 20}})
	out := c.Step(0, 0)
	if len(out.Reqs) != 1 || out.Reqs[0].Kind != mem.Read {
		t.Fatalf("store miss must fetch the line (write-allocate): %+v", out)
	}
	if out.WaitID != 0 {
		t.Fatalf("OoO store must not block")
	}
	if c.Stats().MemFills != 1 {
		t.Fatalf("MemFills = %d", c.Stats().MemFills)
	}
}

func TestFlushEmitsWriteback(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.OpStore, Addr: 0x40},
		{Kind: workload.OpFlush, Addr: 0x40},
	}
	c := newTestCore(t, CortexA57(), ops)
	out := c.Step(0, 0) // store: miss + fill
	c.Deliver(out.Reqs[0].ID)
	out = c.Step(1, 0) // flush
	if len(out.Reqs) != 1 || out.Reqs[0].Kind != mem.Writeback || !out.Reqs[0].Posted {
		t.Fatalf("flush of dirty line must post a writeback: %+v", out)
	}
	if c.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d", c.Stats().Flushes)
	}
}

func TestFlushCleanLineIsQuiet(t *testing.T) {
	c := newTestCore(t, CortexA57(), []workload.Op{{Kind: workload.OpFlush, Addr: 0x40}})
	out := c.Step(0, 0)
	if len(out.Reqs) != 0 {
		t.Fatalf("flushing an uncached line must not emit requests: %+v", out)
	}
}

func TestRowCloneFenceProtocol(t *testing.T) {
	ops := []workload.Op{{Kind: workload.OpRowClone, Addr: 8192, Src: 0}}
	c := newTestCore(t, CortexA57(), ops)
	out := c.Step(0, 0)
	if !out.Fence {
		t.Fatalf("RowClone must fence first: %+v", out)
	}
	c.FenceDone()
	out = c.Step(1, 0)
	if len(out.Reqs) != 1 || out.Reqs[0].Kind != mem.RowClone || out.WaitID != out.Reqs[0].ID {
		t.Fatalf("RowClone must issue a blocking request: %+v", out)
	}
	if out.Reqs[0].Src != 0 || out.Reqs[0].Addr != 8192 {
		t.Fatalf("RowClone addresses wrong: %+v", out.Reqs[0])
	}
}

func TestBarrierAndMark(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.OpBarrier},
		{Kind: workload.OpMark},
	}
	c := newTestCore(t, CortexA57(), ops)
	out := c.Step(0, 0)
	if !out.Fence {
		t.Fatalf("barrier must fence")
	}
	c.FenceDone()
	out = c.Step(1, 0)
	if !out.Mark {
		t.Fatalf("expected mark outcome: %+v", out)
	}
}

func TestInstructionCapTruncates(t *testing.T) {
	cfg := CortexA57()
	cfg.MaxInstructions = 50
	c := newTestCore(t, cfg, []workload.Op{
		{Kind: workload.OpCompute, N: 40},
		{Kind: workload.OpCompute, N: 40},
		{Kind: workload.OpCompute, N: 40},
	})
	total := clock.Cycles(0)
	for i := 0; i < 10; i++ {
		out := c.Step(total, 0)
		if out.Finished {
			if c.Stats().Instructions >= 120 {
				t.Fatalf("cap did not truncate: %d instructions", c.Stats().Instructions)
			}
			return
		}
		total += out.Cycles
	}
	t.Fatalf("never finished")
}

func TestL2HitCostsMoreThanL1(t *testing.T) {
	cfg := Rocket50()
	ops := []workload.Op{
		{Kind: workload.OpLoad, Addr: 0x40},
		{Kind: workload.OpLoad, Addr: 0x40},
	}
	c := newTestCore(t, cfg, ops)
	out := c.Step(0, 0)
	c.Deliver(out.WaitID)
	out = c.Step(1, 0)
	if out.Cycles != cfg.L1Lat {
		t.Fatalf("L1 hit cost = %d, want %d", out.Cycles, cfg.L1Lat)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	cfg := CortexA57()
	cfg.NextLinePrefetch = true
	ops := []workload.Op{
		{Kind: workload.OpLoad, Addr: 1 << 20},
		{Kind: workload.OpLoad, Addr: 1<<20 + 64},
	}
	c := newTestCore(t, cfg, ops)
	out := c.Step(0, 0)
	// Demand miss + posted prefetch of the next line.
	if len(out.Reqs) != 2 {
		t.Fatalf("expected demand+prefetch, got %d requests", len(out.Reqs))
	}
	if !out.Reqs[1].Posted || out.Reqs[1].Addr != 1<<20+64 {
		t.Fatalf("prefetch request wrong: %+v", out.Reqs[1])
	}
	c.Deliver(out.Reqs[0].ID)
	// The second load now hits thanks to the prefetch.
	out = c.Step(2, 0)
	if len(out.Reqs) != 0 {
		t.Fatalf("prefetched line should hit: %+v", out)
	}
	if c.Stats().Prefetches != 1 {
		t.Fatalf("Prefetches = %d", c.Stats().Prefetches)
	}
}

// TestDeliverKeepsIssueOrder delivers the first, a middle, the last and an
// absent miss, and checks that the rest stay in issue order with
// outstanding[0] the oldest.
func TestDeliverKeepsIssueOrder(t *testing.T) {
	c := newTestCore(t, CortexA57(), nil)
	ids := func() []uint64 {
		var out []uint64
		for _, m := range c.outstanding {
			out = append(out, m.id)
		}
		return out
	}
	for i := uint64(1); i <= 6; i++ {
		c.outstanding = append(c.outstanding, outstandingMiss{id: i, issue: clock.Cycles(10 * i)})
	}
	for _, step := range []struct {
		deliver uint64
		want    []uint64
	}{
		{1, []uint64{2, 3, 4, 5, 6}}, // the oldest
		{4, []uint64{2, 3, 5, 6}},    // a middle one
		{6, []uint64{2, 3, 5}},       // the youngest
		{9, []uint64{2, 3, 5}},       // not outstanding
	} {
		c.Deliver(step.deliver)
		if got := ids(); !slices.Equal(got, step.want) {
			t.Fatalf("after Deliver(%d): outstanding %v, want %v", step.deliver, got, step.want)
		}
		for _, m := range c.outstanding {
			if m.issue != clock.Cycles(10*m.id) {
				t.Fatalf("after Deliver(%d): miss %d carries issue %d", step.deliver, m.id, m.issue)
			}
		}
	}
}
