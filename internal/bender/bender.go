// Package bender reimplements the DRAM Bender execution engine: a small
// instruction set for issuing DRAM commands with exact, programmable delays.
//
// The software memory controller (package smc) compiles each scheduling
// decision into a Bender program, transfers it to the command buffer, and
// triggers execution. Bender then replays the program against the DRAM chip
// model with cycle-exact spacing and reports the elapsed time — exactly the
// contract the paper's EasyTile has with the hardware DRAM Bender.
package bender

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/dram"
)

// Op is a DRAM Bender instruction opcode.
type Op uint8

// Instruction opcodes. SEND-class opcodes issue one DRAM command in one bus
// cycle; control opcodes manage delays, registers, and loops.
const (
	OpNOP Op = iota
	OpACT    // A=bank, B=row, C=tRCD override in ps (0 = nominal)
	OpPRE    // A=bank
	OpRD     // A=bank, B=col; data lands in the readback buffer
	OpWR     // A=bank, B=col, C=write-buffer index
	OpREF
	OpWAIT // A=delay in bus cycles
	OpLDI  // A=register, B=immediate
	OpDEC  // A=register
	OpBNZ  // A=register, B=target pc
	OpJMP  // A=target pc
	OpEND
)

var opNames = [...]string{
	OpNOP: "NOP", OpACT: "ACT", OpPRE: "PRE", OpRD: "RD", OpWR: "WR",
	OpREF: "REF", OpWAIT: "WAIT", OpLDI: "LDI", OpDEC: "DEC",
	OpBNZ: "BNZ", OpJMP: "JMP", OpEND: "END",
}

// String returns the opcode's mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Instr is one DRAM Bender instruction: 16 bytes, the opcode and three
// 32-bit operands. Builder never truncates an operand that does not fit
// (see Builder.Err).
type Instr struct {
	Op      Op
	A, B, C int32
}

// String renders the instruction as "MNEMONIC A,B,C".
func (i Instr) String() string {
	return fmt.Sprintf("%s %d,%d,%d", i.Op, i.A, i.B, i.C)
}

// NumRegs is the number of general-purpose loop registers.
const NumRegs = 8

// maxSteps bounds interpretation so buggy programs cannot hang the
// emulation (DRAM Bender hardware has a watchdog with the same role).
const maxSteps = 64 << 20

var errRunaway = fmt.Errorf("bender: program exceeded %d steps (missing END?)", maxSteps)

// ReadLine is one readback-buffer entry.
type ReadLine struct {
	Data     [dram.LineBytes]byte
	Reliable bool
	// LinkCorrupt marks a line the host link corrupted in flight (tile-level
	// fault injection; the chip-side data was fine).
	LinkCorrupt bool
}

// Result reports one program execution.
type Result struct {
	// Elapsed is the bus time the program occupied DRAM Bender.
	Elapsed clock.PS
	// Commands is the number of DRAM commands issued.
	Commands int
	// Reads is the number of lines appended to the readback buffer.
	Reads int
	// UnreliableReads counts RDs the chip reported unreliable (early-tRCD
	// corruption or injected read faults) — the signal the SMC's
	// verify-and-retry path keys on, counted identically whether read data
	// is buffered or discarded.
	UnreliableReads int
	// CloneAttempts / CloneSuccesses count RowClone activations observed.
	CloneAttempts  int
	CloneSuccesses int
	// LaunchFailed marks an injected transient program-launch failure at
	// the host link: nothing executed, and the program is still in the
	// builder for a retry.
	LaunchFailed bool
}

// Engine executes Bender programs against a DRAM device (a single-rank
// Chip or a multi-rank Module; bank operands are device-global).
type Engine struct {
	chip dram.Device
	bus  clock.Clock

	readback []ReadLine
	maxRead  int
}

// ReadbackLines is the default readback-buffer capacity in cache lines
// (512 KiB — the paper's EasyTile readback buffer class). Programs whose
// buffered reads exceed it fail; bulk profiling must size its batches
// against this bound.
const ReadbackLines = 8192

// NewEngine returns an Engine bound to dev. maxReadback bounds the readback
// buffer (0 selects the default ReadbackLines).
func NewEngine(dev dram.Device, maxReadback int) *Engine {
	if maxReadback <= 0 {
		maxReadback = ReadbackLines
	}
	return &Engine{chip: dev, bus: dev.Timing().Bus, maxRead: maxReadback}
}

// Device returns the attached DRAM device.
func (e *Engine) Device() dram.Device { return e.chip }

// Chip returns the attached DRAM model when the device is a single-rank
// Chip, and nil for a multi-rank Module.
func (e *Engine) Chip() *dram.Chip {
	c, _ := e.chip.(*dram.Chip)
	return c
}

// Readback returns the readback buffer contents accumulated since the last
// DrainReadback.
func (e *Engine) Readback() []ReadLine { return e.readback }

// DrainReadback empties the readback buffer and returns its prior contents.
// The returned slice aliases the engine's reusable buffer: it is valid only
// until the next Exec, so callers must copy entries they keep.
func (e *Engine) DrainReadback() []ReadLine {
	rb := e.readback
	e.readback = e.readback[:0]
	return rb
}

// ExecDiscardReads runs prog like Exec but drops read data instead of
// buffering it in the readback buffer (and is exempt from the buffer's
// capacity limit). The access service paths use it: a plain read's data is
// never consumed, so moving 64-byte lines per RD would be pure overhead.
// Chip state, statistics, and Result are identical to a buffered run.
func (e *Engine) ExecDiscardReads(prog []Instr, start clock.PS, wrbuf [][]byte) (Result, error) {
	var res Result
	err := e.ExecInto(&res, prog, start, wrbuf, true)
	return res, err
}

// Exec runs prog starting at absolute chip time start. wrbuf supplies data
// for WR instructions (indexed by Instr.C). It returns the execution result
// or an error for malformed programs.
func (e *Engine) Exec(prog []Instr, start clock.PS, wrbuf [][]byte) (Result, error) {
	var res Result
	err := e.ExecInto(&res, prog, start, wrbuf, false)
	return res, err
}

// ExecInto is the interpreter behind Exec and ExecDiscardReads: it
// overwrites *res with the result of running prog, so callers on the
// service path can keep one Result and pass it by reference instead of
// copying it through every layer. discard drops read data as
// ExecDiscardReads does. On error *res holds the counts up to the failing
// instruction.
func (e *Engine) ExecInto(res *Result, prog []Instr, start clock.PS, wrbuf [][]byte, discard bool) error {
	*res = Result{}
	var regs [NumRegs]int
	period := e.bus.Period()
	t := start
	// The step budget is charged at taken jumps only: steps counts the
	// instructions run before the straight-line run that began at seg, and
	// a taken BNZ or JMP at pc adds that run's pc-seg+1. Without a jump a
	// program ends within len(prog) instructions, so only a loop can run
	// away, and straight-line code pays no check per instruction.
	pc, seg, steps := 0, 0, 0
	// Falling off either end terminates, like END.
	for uint(pc) < uint(len(prog)) {
		in := prog[pc]
		switch in.Op {
		case OpNOP:
			t += period
		case OpACT:
			cloned, ok := e.chip.Activate(int(in.A), int(in.B), t, clock.PS(in.C))
			if cloned {
				res.CloneAttempts++
				if ok {
					res.CloneSuccesses++
				}
			}
			res.Commands++
			t += period
		case OpPRE:
			e.chip.Precharge(int(in.A), t)
			res.Commands++
			t += period
		case OpRD:
			var rel bool
			var err error
			if discard {
				// The line's reliability and data go nowhere: the caller
				// declared the readback unused (ExecDiscardReads), so no
				// line is buffered. Chip state, statistics, and timing
				// checks advance exactly as a buffered read's would.
				rel, err = e.chip.Read(int(in.A), int(in.B), t, nil)
			} else {
				rel, err = e.readBuffered(int(in.A), int(in.B), t)
			}
			if err != nil {
				return fmt.Errorf("bender: pc=%d: %w", pc, err)
			}
			if !rel {
				res.UnreliableReads++
			}
			res.Commands++
			res.Reads++
			t += period
		case OpWR:
			var src []byte
			if in.C >= 0 && int(in.C) < len(wrbuf) {
				src = wrbuf[in.C]
			}
			if err := e.chip.Write(int(in.A), int(in.B), t, src); err != nil {
				return fmt.Errorf("bender: pc=%d: %w", pc, err)
			}
			res.Commands++
			t += period
		case OpREF:
			e.chip.Refresh(t)
			res.Commands++
			// REF occupies the chip for tRFC.
			t += e.chip.Timing().TRFC
		case OpWAIT:
			if in.A < 0 {
				return fmt.Errorf("bender: pc=%d: negative WAIT %d", pc, in.A)
			}
			t += clock.PS(in.A) * period
		case OpLDI:
			if err := checkReg(in.A, pc); err != nil {
				return err
			}
			regs[in.A] = int(in.B)
		case OpDEC:
			if err := checkReg(in.A, pc); err != nil {
				return err
			}
			regs[in.A]--
		case OpBNZ:
			if err := checkReg(in.A, pc); err != nil {
				return err
			}
			if regs[in.A] != 0 {
				if steps += pc - seg + 1; steps > maxSteps {
					return errRunaway
				}
				pc, seg = int(in.B), int(in.B)
				continue
			}
		case OpJMP:
			if steps += pc - seg + 1; steps > maxSteps {
				return errRunaway
			}
			pc, seg = int(in.A), int(in.A)
			continue
		case OpEND:
			res.Elapsed = t - start
			return nil
		default:
			return fmt.Errorf("bender: pc=%d: unknown opcode %v", pc, in.Op)
		}
		pc++
	}
	res.Elapsed = t - start
	return nil
}

// readBuffered issues a RD whose line lands straight in the readback
// buffer's next entry: a local line passed through the Device interface
// would escape to the heap on every test read. The entry is zeroed first,
// so a device that writes no data (tracking off) leaves zeros. Within the
// buffer's capacity the entry is resliced in place; append only grows it.
// A failed read leaves the buffer as it was.
func (e *Engine) readBuffered(bank, col int, t clock.PS) (bool, error) {
	n := len(e.readback)
	if n >= e.maxRead {
		return false, fmt.Errorf("readback buffer overflow (%d lines)", e.maxRead)
	}
	if n < cap(e.readback) {
		e.readback = e.readback[:n+1]
		e.readback[n] = ReadLine{}
	} else {
		e.readback = append(e.readback, ReadLine{})
	}
	rel, err := e.chip.Read(bank, col, t, e.readback[n].Data[:])
	if err != nil {
		e.readback = e.readback[:n]
		return false, err
	}
	e.readback[n].Reliable = rel
	return rel, nil
}

func checkReg(r int32, pc int) error {
	if r < 0 || r >= NumRegs {
		return fmt.Errorf("bender: pc=%d: register %d out of range [0,%d)", pc, r, NumRegs)
	}
	return nil
}
