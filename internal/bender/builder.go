package bender

import (
	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/timing"
)

// Builder assembles Bender programs. It provides both raw instruction
// emission and the timing-aware command sequences the EasyAPI exposes
// (read_sequence, write_sequence, rowclone, reduced-tRCD reads).
//
// A Builder computes WAITs from timing parameters. The zero value is not
// usable; construct with NewBuilder.
type Builder struct {
	p    timing.Params
	prog []Instr
	wr   [][]byte
}

// NewBuilder returns a Builder that computes delays from p.
func NewBuilder(p timing.Params) *Builder {
	return &Builder{p: p}
}

// Reset clears the program and write buffer for reuse.
func (b *Builder) Reset() {
	b.prog = b.prog[:0]
	b.wr = b.wr[:0]
}

// Len reports the current instruction count.
func (b *Builder) Len() int { return len(b.prog) }

// Program returns the assembled program terminated by END. The returned
// slice aliases the builder; call Reset before building the next program.
func (b *Builder) Program() []Instr {
	return append(b.prog, Instr{Op: OpEND})
}

// WriteBuf returns the accumulated write-data buffer.
func (b *Builder) WriteBuf() [][]byte { return b.wr }

// Emit appends a raw instruction.
func (b *Builder) Emit(in Instr) *Builder {
	b.prog = append(b.prog, in)
	return b
}

// busCycles converts a duration to bus cycles, rounding up, and subtracts
// the one cycle the preceding command slot already consumed.
func (b *Builder) waitAfterCmd(t clock.PS) int {
	n := int(b.p.Bus.CyclesCeil(t))
	if n > 0 {
		n-- // the command itself occupied one bus cycle
	}
	return n
}

// Wait appends a WAIT for the given duration (rounded up to bus cycles).
func (b *Builder) Wait(t clock.PS) *Builder {
	b.waitCycles(int(b.p.Bus.CyclesCeil(t)))
	return b
}

// ACT appends an activate with nominal tRCD spacing left to the caller.
func (b *Builder) ACT(bank, row int) *Builder {
	return b.Emit(Instr{Op: OpACT, A: bank, B: row})
}

// ACTWithRCD appends an activate annotated with a reduced tRCD (the RD that
// follows will arrive rcd after the ACT).
func (b *Builder) ACTWithRCD(bank, row int, rcd clock.PS) *Builder {
	return b.Emit(Instr{Op: OpACT, A: bank, B: row, C: int(rcd)})
}

// PRE appends a precharge.
func (b *Builder) PRE(bank int) *Builder {
	return b.Emit(Instr{Op: OpPRE, A: bank})
}

// RD appends a column read.
func (b *Builder) RD(bank, col int) *Builder {
	return b.Emit(Instr{Op: OpRD, A: bank, B: col})
}

// WR appends a column write carrying data (copied into the write buffer).
// A nil data slice emits a timing-only write that leaves stored contents
// unchanged (used when the emulated datapath does not model values).
func (b *Builder) WR(bank, col int, data []byte) *Builder {
	if data == nil {
		return b.Emit(Instr{Op: OpWR, A: bank, B: col, C: -1})
	}
	return b.WRStaged(bank, col, b.StageWrite(data))
}

// REF appends a refresh command.
func (b *Builder) REF() *Builder { return b.Emit(Instr{Op: OpREF}) }

// StageWrite copies data into the write buffer once and returns its index,
// so many WR instructions can share one staged line (bulk patterns).
func (b *Builder) StageWrite(data []byte) int {
	idx := len(b.wr)
	cp := make([]byte, dram.LineBytes)
	copy(cp, data)
	b.wr = append(b.wr, cp)
	return idx
}

// WRStaged appends a column write sourcing a previously staged buffer entry
// (see StageWrite).
func (b *Builder) WRStaged(bank, col, idx int) *Builder {
	return b.Emit(Instr{Op: OpWR, A: bank, B: col, C: idx})
}

// ReadSequence appends a standard-compliant closed-row read:
// ACT, wait tRCD, RD, wait max(tRTP, read completion), PRE, wait tRP.
// It is the EasyAPI read_sequence building block.
func (b *Builder) ReadSequence(a dram.Addr) *Builder {
	return b.ReadSequenceRCD(a, b.p.TRCD)
}

// ReadSequenceRCD is ReadSequence with an explicit (possibly reduced) tRCD.
func (b *Builder) ReadSequenceRCD(a dram.Addr, rcd clock.PS) *Builder {
	b.ACTWithRCD(a.Bank, a.Row, rcd)
	b.waitCycles(b.waitAfterCmd(rcd))
	b.RD(a.Bank, a.Col)
	// Leave the row open; the SMC decides when to precharge (open-row
	// policy). Reads complete tCL+tBL after RD, which the executor's
	// elapsed time must cover before the data can be consumed.
	return b
}

// ReadHit appends a RD to an already-open row.
func (b *Builder) ReadHit(a dram.Addr) *Builder {
	return b.RD(a.Bank, a.Col)
}

// WriteSequence appends a standard-compliant closed-row write.
func (b *Builder) WriteSequence(a dram.Addr, data []byte) *Builder {
	b.ACT(a.Bank, a.Row)
	b.waitCycles(b.waitAfterCmd(b.p.TRCD))
	b.WR(a.Bank, a.Col, data)
	return b
}

// PrechargeAfterRead appends the tail of a closed-row access: wait for the
// column operation to finish, then PRE and wait tRP.
func (b *Builder) PrechargeAfterRead(bank int) *Builder {
	b.waitCycles(b.waitAfterCmd(b.p.TRTP))
	b.PRE(bank)
	b.waitCycles(b.waitAfterCmd(b.p.TRP))
	return b
}

// rowCloneSettle is the post-clone restoration margin: real RowClone
// deployments (PiDRAM) pad the sequence so the destination row's cells
// restore fully before any subsequent access, which dominates the per-clone
// cost beyond the raw ACT-PRE-ACT triple.
const rowCloneSettle = 100 * clock.Nanosecond

// RowClone appends the FPM RowClone command sequence: ACT(src),
// early PRE, early ACT(dst) — deliberately violating tRAS and tRP — then a
// settle delay and a standard precharge to leave the bank closed.
//
// The early gaps (2 bus cycles each, 3 ns at DDR4-1333) match the
// characterized windows in the ComputeDRAM/PiDRAM literature.
func (b *Builder) RowClone(bank, srcRow, dstRow int) *Builder {
	b.ACT(bank, srcRow)
	b.waitCycles(1)
	b.PRE(bank)
	b.waitCycles(1)
	b.ACT(bank, dstRow)
	// Let the destination row restore fully before closing it.
	b.waitCycles(b.waitAfterCmd(b.p.TRAS + rowCloneSettle))
	b.PRE(bank)
	b.waitCycles(b.waitAfterCmd(b.p.TRP))
	return b
}

// BitwiseMAJ appends the ComputeDRAM-style many-row-activation sequence:
// back-to-back ACT(r1), PRE, ACT(r2) with no waits, which activates r1, r2
// and r1|r2 simultaneously and leaves all three at the bitwise majority of
// their contents. A settle delay and precharge close the bank.
func (b *Builder) BitwiseMAJ(bank, r1, r2 int) *Builder {
	b.ACT(bank, r1)
	b.PRE(bank)
	b.ACT(bank, r2)
	b.waitCycles(b.waitAfterCmd(b.p.TRAS + rowCloneSettle))
	b.PRE(bank)
	b.waitCycles(b.waitAfterCmd(b.p.TRP))
	return b
}

// ProfileLine appends the §8.1 single-line profiling sequence: initialize
// the line with pattern at nominal timing, close the row, then test it with
// ProfileCheck. The bank must start precharged; the sequence leaves it
// precharged.
func (b *Builder) ProfileLine(a dram.Addr, pattern []byte, rcd clock.PS) *Builder {
	b.ACT(a.Bank, a.Row)
	b.Wait(b.p.TRCD - b.p.Bus.Period())
	b.WR(a.Bank, a.Col, pattern)
	b.Wait(b.p.TCWL + b.p.TBL + b.p.TWR)
	b.PRE(a.Bank)
	b.Wait(b.p.TRP - b.p.Bus.Period())
	return b.ProfileCheck(a, rcd)
}

// ProfileCheck appends the reduced-tRCD test half of a profiling sequence:
// activate with rcd, read the column exactly rcd after the ACT, and close
// the row again. Every profiled line — whether tested one at a time or as
// part of a whole-row program — goes through this sequence, so the
// effective tRCD the chip model observes is identical on both paths.
func (b *Builder) ProfileCheck(a dram.Addr, rcd clock.PS) *Builder {
	b.ACTWithRCD(a.Bank, a.Row, rcd)
	b.Wait(rcd - b.p.Bus.Period())
	b.RD(a.Bank, a.Col)
	b.Wait(b.p.TCL + b.p.TBL + b.p.TRTP)
	b.PRE(a.Bank)
	b.Wait(b.p.TRP - b.p.Bus.Period())
	return b
}

// ProfileRow appends the row-granularity profiling program (§8.1 fast
// path): one activation initializes all cols columns with pattern (writes
// spaced by tCCD_L, write recovery after the last), then each column is
// tested with its own ProfileCheck so per-line reliability is decided under
// exactly the single-line sequence's ACT->RD spacing. One program replaces
// cols request round-trips through the controller. The readback buffer
// receives exactly cols lines, in column order.
func (b *Builder) ProfileRow(bank, row, cols int, pattern []byte, rcd clock.PS) *Builder {
	b.ACT(bank, row)
	b.Wait(b.p.TRCD - b.p.Bus.Period())
	idx := b.StageWrite(pattern)
	for col := 0; col < cols; col++ {
		b.WRStaged(bank, col, idx)
		if col != cols-1 {
			b.Wait(b.p.TCCDL - b.p.Bus.Period())
		}
	}
	b.Wait(b.p.TCWL + b.p.TBL + b.p.TWR)
	b.PRE(bank)
	b.Wait(b.p.TRP - b.p.Bus.Period())
	for col := 0; col < cols; col++ {
		b.ProfileCheck(dram.Addr{Bank: bank, Row: row, Col: col}, rcd)
	}
	return b
}

// StripeRowsMax is the largest row count ProfileRowStripe accepts in one
// program on the default 128-column module: the EasyTile readback buffer
// holds ReadbackLines (8192) lines, and each profiled row contributes one
// test read per column, so 64 rows exactly fill it. The binding limit is
// rows*cols <= ReadbackLines — wider geometries fit fewer rows (the
// controller checks the product).
const StripeRowsMax = ReadbackLines / 128

// ProfileRowStripe appends the bank-stripe profiling program (§8.1 at its
// batching limit): the whole-row sequence of ProfileRow repeated for `rows`
// consecutive rows starting at startRow, all in one program. Per-line
// reliability outcomes are identical to per-row (and per-line) programs
// because each line still goes through ProfileCheck — its test read lands
// exactly rcd after its own activation, and the variation model decides
// reliability from that spacing alone. The readback buffer receives
// rows*cols lines in (row, column) order; rows*cols must not exceed the
// 8192-line readback buffer (StripeRowsMax rows of a 128-column module).
func (b *Builder) ProfileRowStripe(bank, startRow, rows, cols int, pattern []byte, rcd clock.PS) *Builder {
	for r := 0; r < rows; r++ {
		b.ProfileRow(bank, startRow+r, cols, pattern, rcd)
	}
	return b
}

// Loop wraps body(i-free) in an LDI/DEC/BNZ loop executing count times.
// The body must not emit absolute jumps.
func (b *Builder) Loop(reg, count int, body func(*Builder)) *Builder {
	b.Emit(Instr{Op: OpLDI, A: reg, B: count})
	top := len(b.prog)
	body(b)
	b.Emit(Instr{Op: OpDEC, A: reg})
	b.Emit(Instr{Op: OpBNZ, A: reg, B: top})
	return b
}

func (b *Builder) waitCycles(n int) {
	if n > 0 {
		b.Emit(Instr{Op: OpWAIT, A: n})
	}
}
