package tile

import (
	"testing"

	"easydram/internal/dram"
	"easydram/internal/mem"
)

func newTestTile(t *testing.T) *Tile {
	t.Helper()
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(chip, DefaultCostModel())
}

func TestFIFOOrder(t *testing.T) {
	tl := newTestTile(t)
	if !tl.IncomingEmpty() {
		t.Fatalf("new tile must have an empty FIFO")
	}
	for i := uint64(1); i <= 3; i++ {
		tl.PushRequest(&mem.Request{ID: i})
	}
	for i := uint64(1); i <= 3; i++ {
		slot, ok := tl.PopRequest()
		if !ok || tl.Req(slot).ID != i {
			t.Fatalf("pop %d = (%v,%v)", i, slot, ok)
		}
		tl.Release(slot)
	}
	if _, ok := tl.PopRequest(); ok {
		t.Fatalf("empty pop must fail")
	}
	if tl.Stats().RequestsIn != 3 || tl.Stats().MaxQueueLen != 3 {
		t.Fatalf("stats = %+v", tl.Stats())
	}
}

func TestExecAdvancesCursorAndResetsBuilder(t *testing.T) {
	tl := newTestTile(t)
	p := tl.Chip().Timing()
	tl.Builder().ReadSequence(dram.Addr{Bank: 0, Row: 1, Col: 0})
	res, rb, err := tl.Exec(false)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Elapsed <= 0 || len(rb) != 1 {
		t.Fatalf("res=%+v rb=%d", res, len(rb))
	}
	if tl.Builder().Len() != 0 {
		t.Fatalf("builder not reset after Exec")
	}
	if tl.Stats().ProgramsRun != 1 {
		t.Fatalf("programs = %d", tl.Stats().ProgramsRun)
	}
	_ = p
}

func TestDefaultCostModelPositive(t *testing.T) {
	c := DefaultCostModel()
	costs := []int{
		c.Poll, c.ReceiveRequest, c.CriticalEnter, c.CriticalExit,
		c.ScheduleBase, c.SchedulePerReq, c.MapAddr, c.BuildPerInstr,
		c.FlushLaunch, c.FlushPerInstr, c.ReadbackPerLine, c.Respond,
		c.BloomCheck, c.ProfileCompare,
	}
	for i, v := range costs {
		if v <= 0 {
			t.Fatalf("cost %d non-positive", i)
		}
	}
}

// TestSoftwareMCLatencyClass pins the calibration target: a simple read
// served by the software memory controller costs on the order of 60-100
// FPGA cycles of controller work (the latency class the paper reports),
// which at 100 MHz is microseconds-scale per request.
func TestSoftwareMCLatencyClass(t *testing.T) {
	c := DefaultCostModel()
	// Poll + receive + critical + schedule + map + build/flush of a
	// 3-instruction program + readback + respond.
	total := c.Poll + c.ReceiveRequest + c.CriticalEnter + c.ScheduleBase +
		c.SchedulePerReq + c.MapAddr + 3*(c.BuildPerInstr+c.FlushPerInstr) +
		c.FlushLaunch + c.ReadbackPerLine + c.Respond + c.CriticalExit
	if total < 40 || total > 150 {
		t.Fatalf("per-read controller cost %d FPGA cycles outside the calibrated class", total)
	}
}
