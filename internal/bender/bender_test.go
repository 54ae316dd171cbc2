package bender

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"easydram/internal/clock"
	"easydram/internal/dram"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatalf("dram.New: %v", err)
	}
	return NewEngine(chip, 64)
}

func TestOpString(t *testing.T) {
	if OpACT.String() != "ACT" || OpWAIT.String() != "WAIT" {
		t.Fatalf("op names wrong")
	}
	in := Instr{Op: OpACT, A: 1, B: 2}
	if in.String() != "ACT 1,2,0" {
		t.Fatalf("instr string: %q", in.String())
	}
}

func TestExecReadWrite(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	data := bytes.Repeat([]byte{0x42}, dram.LineBytes)
	b.ACT(0, 5)
	b.Wait(p.TRCD)
	b.WR(0, 9, data)
	b.Wait(p.TCWL + p.TBL + p.TWR)
	b.PRE(0)
	b.Wait(p.TRP)
	b.ACT(0, 5)
	b.Wait(p.TRCD)
	b.RD(0, 9)

	res, err := e.Exec(b.Program(), 0, b.WriteBuf())
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Commands != 5 || res.Reads != 1 {
		t.Fatalf("commands=%d reads=%d", res.Commands, res.Reads)
	}
	rb := e.Readback()
	if len(rb) != 1 || !rb[0].Reliable || !bytes.Equal(rb[0].Data[:], data) {
		t.Fatalf("readback wrong: %+v", rb)
	}
}

func TestExecElapsedMatchesWaits(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	prog := []Instr{
		{Op: OpACT, A: 0, B: 0},
		{Op: OpWAIT, A: 10},
		{Op: OpPRE, A: 0},
		{Op: OpEND},
	}
	res, err := e.Exec(prog, 0, nil)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	want := 12 * p.Bus.Period() // ACT slot + 10 waits + PRE slot
	if res.Elapsed != want {
		t.Fatalf("elapsed = %v, want %v", res.Elapsed, want)
	}
}

func TestLoops(t *testing.T) {
	e := newTestEngine(t)
	b := NewBuilder(e.Chip().Timing())
	count := 0
	b.Loop(0, 5, func(b *Builder) {
		b.Emit(Instr{Op: OpNOP})
		count++
	})
	res, err := e.Exec(b.Program(), 0, nil)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// 5 iterations x 1 NOP = 5 bus cycles of NOPs.
	if res.Elapsed < 5*e.Chip().Timing().Bus.Period() {
		t.Fatalf("loop did not execute 5 times: %v", res.Elapsed)
	}
}

func TestRunawayProgramAborts(t *testing.T) {
	e := newTestEngine(t)
	prog := []Instr{{Op: OpJMP, A: 0}} // infinite loop
	_, err := e.Exec(prog, 0, nil)
	if want := fmt.Sprintf("bender: program exceeded %d steps (missing END?)", maxSteps); err == nil || err.Error() != want {
		t.Fatalf("infinite loop: err = %v, want %q", err, want)
	}
}

// TestCountedLoopStepBudget runs a counted loop (LDI, then DEC and BNZ
// back to the DEC) on both sides of the step budget. The budget is charged
// at taken jumps, and n iterations take n-1 of them: the first charges 3
// steps and each later one 2, so n iterations charge 3 + 2(n-2) = 2n-1.
// maxSteps/2 iterations charge maxSteps-1 and finish at END; one more
// charges maxSteps+1 and exceeds the budget.
func TestCountedLoopStepBudget(t *testing.T) {
	e := newTestEngine(t)
	loop := func(n int32) []Instr {
		return []Instr{{Op: OpLDI, A: 0, B: n}, {Op: OpDEC, A: 0}, {Op: OpBNZ, A: 0, B: 1}, {Op: OpEND}}
	}
	if _, err := e.Exec(loop(maxSteps/2), 0, nil); err != nil {
		t.Fatalf("loop within the budget: %v", err)
	}
	_, err := e.Exec(loop(maxSteps/2+1), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("loop past the budget: err = %v, want the step-budget error", err)
	}
}

func TestBadRegisterFails(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec([]Instr{{Op: OpLDI, A: 99, B: 1}}, 0, nil); err == nil {
		t.Fatalf("register out of range must error")
	}
}

func TestNegativeWaitFails(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec([]Instr{{Op: OpWAIT, A: -1}}, 0, nil); err == nil {
		t.Fatalf("negative WAIT must error")
	}
}

func TestReadbackOverflow(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chip, 2)
	b := NewBuilder(chip.Timing())
	b.ACT(0, 0)
	b.Wait(chip.Timing().TRCD)
	for i := 0; i < 3; i++ {
		b.RD(0, i)
		b.Wait(chip.Timing().TCCDL)
	}
	if _, err := e.Exec(b.Program(), 0, b.WriteBuf()); err == nil {
		t.Fatalf("readback overflow must error")
	}
}

func TestDrainReadback(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	b.ReadSequence(dram.Addr{Bank: 0, Row: 1, Col: 2})
	if _, err := e.Exec(b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	if len(e.DrainReadback()) != 1 {
		t.Fatalf("expected one line")
	}
	if len(e.Readback()) != 0 {
		t.Fatalf("drain must empty the buffer")
	}
}

func TestRowCloneBuilderClones(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	cfg.ClonableFraction = 1
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chip, 16)
	b := NewBuilder(chip.Timing())
	b.RowClone(2, 100, 101)
	res, err := e.Exec(b.Program(), 0, b.WriteBuf())
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.CloneAttempts != 1 || res.CloneSuccesses != 1 {
		t.Fatalf("clone attempts=%d successes=%d", res.CloneAttempts, res.CloneSuccesses)
	}
	if chip.OpenRow(2) != -1 {
		t.Fatalf("RowClone sequence must leave the bank precharged")
	}
}

func TestReadSequenceIsStandardCompliant(t *testing.T) {
	e := newTestEngine(t)
	b := NewBuilder(e.Chip().Timing())
	b.ReadSequence(dram.Addr{Bank: 3, Row: 7, Col: 1})
	if _, err := e.Exec(b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	if got := e.Chip().Stats().TimingViolations; got != 0 {
		t.Fatalf("ReadSequence produced %d timing violations", got)
	}
	rb := e.Readback()
	if len(rb) != 1 || !rb[0].Reliable {
		t.Fatalf("nominal read must be reliable")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(dram.DefaultConfig().Timing)
	b.ACT(0, 0).PRE(0)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 || len(b.WriteBuf()) != 0 {
		t.Fatalf("Reset did not clear builder")
	}
}

func TestWRNilDataKeepsContents(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	addr := dram.Addr{Bank: 0, Row: 3, Col: 4}
	want := bytes.Repeat([]byte{0x99}, dram.LineBytes)
	e.Chip().PokeLine(addr, want)

	b := NewBuilder(p)
	b.ACT(0, 3)
	b.Wait(p.TRCD)
	b.WR(0, 4, nil) // timing-only write
	b.Wait(p.TCWL + p.TBL)
	b.RD(0, 4)
	if _, err := e.Exec(b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	rb := e.Readback()
	if !bytes.Equal(rb[0].Data[:], want) {
		t.Fatalf("nil-data WR must not change stored contents")
	}
}

func TestFallThroughEndTerminates(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Exec([]Instr{{Op: OpNOP}}, 0, nil)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Elapsed != clock.PS(e.Chip().Timing().Bus.Period()) {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
}

func TestBitwiseMAJBuilder(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	cfg.Ideal = true
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chip, 16)
	b := NewBuilder(chip.Timing())
	b.BitwiseMAJ(0, 4, 2)
	res, err := e.Exec(b.Program(), 0, b.WriteBuf())
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.CloneAttempts != 1 || res.CloneSuccesses != 1 {
		t.Fatalf("bitwise activation not reported: %+v", res)
	}
	if chip.Stats().BitwiseOps != 1 {
		t.Fatalf("chip did not record the bitwise op")
	}
	if chip.OpenRow(0) != -1 {
		t.Fatalf("sequence must leave the bank precharged")
	}
}

func TestInstrIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 16 {
		t.Fatalf("Instr is %d bytes, want 16", n)
	}
}

// TestBuilderRejectsWideOperands checks that an operand outside int32 is
// recorded, never truncated, on either side of the range: its instruction
// is not appended, Err names the first such opcode and value, and Reset
// clears it. The int32 limits themselves still encode. (tile's
// TestExecRejectsWideOperands covers WAIT, loop-count and row operands
// through Exec.)
func TestBuilderRejectsWideOperands(t *testing.T) {
	b := NewBuilder(dram.DefaultConfig().Timing)
	b.ACT(math.MaxInt32, math.MinInt32).WaitCycles(math.MaxInt32)
	if err := b.Err(); err != nil || b.Len() != 2 {
		t.Fatalf("int32 limits: err %v, %d instrs, want nil and 2", err, b.Len())
	}
	if got := b.Program()[0]; got != (Instr{Op: OpACT, A: math.MaxInt32, B: math.MinInt32}) {
		t.Fatalf("int32 limits encoded as %v", got)
	}
	for _, tc := range []struct {
		name  string
		build func(*Builder)
		want  string
	}{
		{"Wait", func(b *Builder) { b.Wait(clock.PS(1) << 62) }, "bender: WAIT operand"},
		{"RD column", func(b *Builder) { b.RD(0, math.MaxInt32+1) }, "bender: RD operand 2147483648 does not fit in 32 bits"},
		{"PRE bank", func(b *Builder) { b.PRE(math.MinInt32 - 1) }, "bender: PRE operand -2147483649 does not fit in 32 bits"},
		{"first kept", func(b *Builder) { b.ACT(0, 1<<33).RD(1<<34, 0) }, "bender: ACT operand 8589934592 does not fit in 32 bits"},
	} {
		b.Reset()
		b.REF()
		tc.build(b)
		err := b.Err()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("%s: Err() = %v, want %q", tc.name, err, tc.want)
		}
		for _, in := range b.Program() {
			if in.Op != OpREF && in.Op != OpEND && in.Op != OpDEC && in.Op != OpBNZ {
				t.Fatalf("%s: appended %v for an operand that does not fit", tc.name, in)
			}
		}
	}
	b.Reset()
	if b.Err() != nil || b.Len() != 0 {
		t.Fatalf("Reset left Err %v and %d instrs", b.Err(), b.Len())
	}
}
