package timescale

import (
	"testing"
	"testing/quick"

	"easydram/internal/clock"
)

func newScaled(t *testing.T) *Counters {
	t.Helper()
	c, err := New(clock.FPGA100MHz, clock.FPGA100MHz, clock.Proc1GHz)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(clock.Clock{}, clock.Proc1GHz, clock.Proc1GHz); err == nil {
		t.Fatalf("missing FPGA clock must fail")
	}
	if _, err := New(clock.FPGA100MHz, clock.Clock{}, clock.Proc1GHz); err == nil {
		t.Fatalf("missing physical processor clock must fail")
	}
	if _, err := New(clock.FPGA100MHz, clock.FPGA100MHz, clock.Proc1GHz); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestProcAdvanceLeavesMCBehind(t *testing.T) {
	c := newScaled(t)
	c.AdvanceProc(100)
	if c.Proc() != 100 {
		t.Fatalf("proc=%d, want 100", c.Proc())
	}
	// MC is the controller's service clock: it stays where the controller
	// last worked, so idle-period background work is backdated correctly.
	if c.MC() != 0 {
		t.Fatalf("mc=%d, want 0 (controller idle)", c.MC())
	}
	// The 100 MHz physical clock makes 100 emulated cycles cost 100 FPGA
	// cycles (1:1 — the core physically runs on the fabric clock).
	if c.Global() != 100 {
		t.Fatalf("global=%d, want 100", c.Global())
	}
}

func TestCriticalModeLocksAllowance(t *testing.T) {
	c := newScaled(t)
	c.AdvanceProc(50)
	c.EnterCritical()
	if got := c.ProcAllowance(); got != 0 {
		t.Fatalf("allowance with stale MC = %d, want 0", got)
	}
	// A request served at its arrival point (cycle 50) for 10 emulated
	// cycles at 1 GHz.
	c.RaiseMCTime(60 * clock.Nanosecond)
	if got := c.ProcAllowance(); got != 10 {
		t.Fatalf("allowance = %d, want 10", got)
	}
	c.AdvanceProc(10)
	if c.ProcAllowance() != 0 {
		t.Fatalf("allowance must be exhausted")
	}
	c.ExitCritical()
	if c.ProcAllowance() <= 1<<40 {
		t.Fatalf("allowance outside critical must be effectively unbounded")
	}
}

func TestMCResidualAccumulates(t *testing.T) {
	c := newScaled(t)
	c.EnterCritical()
	// 10 services of 0.7 ns at 1 GHz = 7 cycles total, despite each being
	// sub-cycle: the MC point is kept in exact picoseconds.
	for i := 1; i <= 10; i++ {
		c.RaiseMCTime(clock.PS(i) * 700)
	}
	if c.MC() != 7 {
		t.Fatalf("mc=%d, want 7 (residual accumulation)", c.MC())
	}
}

func TestJumpProcTo(t *testing.T) {
	c := newScaled(t)
	c.AdvanceProc(10)
	c.JumpProcTo(5) // backwards: no-op
	if c.Proc() != 10 {
		t.Fatalf("jump backwards moved proc")
	}
	c.EnterCritical()
	c.RaiseMCTime(20 * clock.Nanosecond)
	// Releases may exceed MC; JumpProcTo must allow it.
	c.JumpProcTo(c.MC() + 5)
	if c.Proc() != c.MC()+5 {
		t.Fatalf("proc=%d mc=%d", c.Proc(), c.MC())
	}
}

// TestRaiseMC pins RaiseMCTime: the MC point only moves forward, and MC()
// floors it to emulated cycles.
func TestRaiseMC(t *testing.T) {
	c := newScaled(t)
	c.EnterCritical()
	c.RaiseMCTime(42*clock.Nanosecond + 999)
	if c.MC() != 42 {
		t.Fatalf("mc=%d, want 42", c.MC())
	}
	c.RaiseMCTime(10 * clock.Nanosecond) // backwards: no-op
	if c.MC() != 42 {
		t.Fatalf("RaiseMCTime moved backwards")
	}
	c.RaiseMCTime(43 * clock.Nanosecond)
	if c.MC() != 43 {
		t.Fatalf("mc=%d, want 43", c.MC())
	}
}

func TestScaledWallGatesProcessor(t *testing.T) {
	c := newScaled(t)
	c.AdvanceProc(5)
	c.AdvanceWall(1 * clock.Microsecond)
	if c.Proc() != 5 {
		t.Fatalf("scaled wall advance must not move the processor counter")
	}
	if c.Global() != 5+100 {
		t.Fatalf("global=%d, want 105", c.Global())
	}
}

func TestTimes(t *testing.T) {
	c := newScaled(t)
	c.AdvanceProc(1000)
	if c.EmulatedTime() != 1*clock.Microsecond {
		t.Fatalf("emulated time = %v", c.EmulatedTime())
	}
	if c.WallTime() != 10*clock.Microsecond {
		t.Fatalf("wall time = %v", c.WallTime())
	}
}

// Property: counters never move backwards under any operation sequence.
func TestMonotonicity(t *testing.T) {
	type op struct {
		Kind uint8
		N    uint16
	}
	f := func(ops []op) bool {
		c := newScaledQuiet()
		for _, o := range ops {
			p0, m0, g0 := c.Proc(), c.MC(), c.Global()
			switch o.Kind % 5 {
			case 0:
				c.AdvanceProc(clock.Cycles(o.N % 1000))
			case 1:
				c.RaiseMCTime(clock.PS(o.N) * 100)
			case 2:
				c.AdvanceWall(clock.PS(o.N) * 100)
			case 3:
				c.EnterCritical()
			case 4:
				c.ExitCritical()
			}
			if c.Proc() < p0 || c.MC() < m0 || c.Global() < g0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newScaledQuiet() *Counters {
	c, err := New(clock.FPGA100MHz, clock.FPGA100MHz, clock.Proc1GHz)
	if err != nil {
		panic(err)
	}
	return c
}

func TestStringHasCounters(t *testing.T) {
	c := newScaled(t)
	c.AdvanceProc(3)
	if got := c.String(); got == "" {
		t.Fatalf("empty String()")
	}
}
