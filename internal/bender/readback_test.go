package bender

import (
	"math/rand"
	"strings"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/dram"
)

func newTwinChips(t *testing.T) (*dram.Chip, *dram.Chip) {
	t.Helper()
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	a, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// refExec is the reference for the buffered read path: a straight-line
// interpreter of ACT/WAIT/RD/WR/PRE/END that reads every line into a local
// ReadLine and appends it, the way the engine buffered reads before they
// were read in place.
func refExec(t *testing.T, chip *dram.Chip, prog []Instr, start clock.PS, wrbuf [][]byte) (Result, []ReadLine) {
	t.Helper()
	var (
		res Result
		rb  []ReadLine
	)
	period := chip.Timing().Bus.Period()
	now := start
	for _, in := range prog {
		switch in.Op {
		case OpACT:
			cloned, ok := chip.Activate(int(in.A), int(in.B), now, clock.PS(in.C))
			if cloned {
				res.CloneAttempts++
				if ok {
					res.CloneSuccesses++
				}
			}
		case OpPRE:
			chip.Precharge(int(in.A), now)
		case OpRD:
			var line ReadLine
			rel, err := chip.Read(int(in.A), int(in.B), now, line.Data[:])
			if err != nil {
				t.Fatalf("reference RD: %v", err)
			}
			line.Reliable = rel
			if !rel {
				res.UnreliableReads++
			}
			rb = append(rb, line)
			res.Reads++
		case OpWR:
			if err := chip.Write(int(in.A), int(in.B), now, wrbuf[in.C]); err != nil {
				t.Fatalf("reference WR: %v", err)
			}
		case OpWAIT:
			now += clock.PS(in.A) * period
			continue
		case OpEND:
			res.Elapsed = now - start
			return res, rb
		default:
			t.Fatalf("reference: unexpected %v", in)
		}
		res.Commands++
		now += period
	}
	res.Elapsed = now - start
	return res, rb
}

// TestBufferedReadsMatchLocalLineReference runs seeded ACT/RD/WR/PRE
// programs with buffered reads on one chip and the local-line reference on
// its twin: the readback (data and Reliable, line by line) and the Result
// must agree. Activations carry reduced tRCDs and some rows are weak, so
// both reliable and corrupted reads are compared.
func TestBufferedReadsMatchLocalLineReference(t *testing.T) {
	chip, twin := newTwinChips(t)
	e := NewEngine(chip, 0)
	p := chip.Timing()
	vm := chip.Variation()

	// Rows of every level in banks 0..3, so reduced-tRCD reads fail on some
	// lines and pass on others.
	const banks = 4
	var rows [banks][]int
	for bank := 0; bank < banks; bank++ {
		seen := map[clock.PS]bool{}
		for row := 0; row < 4096 && len(seen) < 4; row++ {
			if lv := vm.MinTRCDRow(bank, row); !seen[lv] {
				seen[lv] = true
				rows[bank] = append(rows[bank], row)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	wrbuf := make([][]byte, 4)
	for i := range wrbuf {
		wrbuf[i] = make([]byte, dram.LineBytes)
		rng.Read(wrbuf[i])
	}
	rcds := []clock.PS{0, 9000, 9500, 10000, 10500}

	var (
		start             clock.PS
		unreliable, reads int
	)
	for prog := 0; prog < 20; prog++ {
		b := NewBuilder(p)
		var open [banks]bool
		for i := 0; i < 200; i++ {
			bank := rng.Intn(banks)
			switch {
			case !open[bank]:
				b.ACTWithRCD(bank, rows[bank][rng.Intn(len(rows[bank]))], rcds[rng.Intn(len(rcds))])
				b.WaitCycles(4 + rng.Intn(6)) // RD lands 7.5-15 ns after the ACT
				open[bank] = true
			case rng.Intn(8) == 0:
				b.Wait(p.TRTP).PRE(bank).Wait(p.TRP)
				open[bank] = false
			case rng.Intn(4) == 0:
				b.WRStaged(bank, rng.Intn(128), rng.Intn(len(wrbuf))).Wait(p.TCCDL)
			default:
				b.RD(bank, rng.Intn(128)).WaitCycles(rng.Intn(3))
			}
		}
		got, err := e.Exec(b.Program(), start, wrbuf)
		if err != nil {
			t.Fatalf("program %d: %v", prog, err)
		}
		want, wantRB := refExec(t, twin, b.Program(), start, wrbuf)
		if got != want {
			t.Fatalf("program %d: Result %+v, reference %+v", prog, got, want)
		}
		gotRB := e.DrainReadback()
		if len(gotRB) != len(wantRB) {
			t.Fatalf("program %d: %d readback lines, reference %d", prog, len(gotRB), len(wantRB))
		}
		for i := range gotRB {
			if gotRB[i] != wantRB[i] {
				t.Fatalf("program %d line %d: %+v, reference %+v", prog, i, gotRB[i], wantRB[i])
			}
		}
		unreliable += got.UnreliableReads
		reads += got.Reads
		// Close every bank so the next program starts from a precharged chip.
		start += got.Elapsed
		for bank := 0; bank < banks; bank++ {
			start += p.TRP
			chip.Precharge(bank, start)
			twin.Precharge(bank, start)
		}
		start += p.TRP
	}
	if unreliable == 0 || unreliable == reads {
		t.Fatalf("coverage: %d of %d reads unreliable", unreliable, reads)
	}
}

// TestFailedReadLeavesReadbackUnchanged: a RD on a precharged bank in the
// middle of a program errors, and the readback buffer keeps exactly the
// lines buffered before it — those of earlier programs included.
func TestFailedReadLeavesReadbackUnchanged(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	b.ReadSequence(dram.Addr{Bank: 0, Row: 1, Col: 2})
	if _, err := e.Exec(b.Program(), 0, nil); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	b.RD(0, 3).Wait(p.TRTP).PRE(0).Wait(p.TRP)
	b.RD(0, 4) // bank 0 is precharged now
	b.ACT(1, 1).Wait(p.TRCD).RD(1, 0)
	first := e.Readback()[0]
	_, err := e.Exec(b.Program(), 1000*p.TRCD, nil)
	if err == nil || !strings.Contains(err.Error(), "precharged") {
		t.Fatalf("RD on a precharged bank: err = %v", err)
	}
	rb := e.Readback()
	if len(rb) != 2 {
		t.Fatalf("readback holds %d lines after the failed RD, want 2", len(rb))
	}
	if rb[0] != first || rb[1] != (ReadLine{Reliable: true}) {
		t.Fatalf("readback changed: %+v", rb)
	}
}

// TestBufferedExecZeroAllocs pins the in-place readback: a warm program of
// 64 buffered RDs allocates nothing.
func TestBufferedExecZeroAllocs(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	b.ACT(0, 3).Wait(p.TRCD)
	for col := 0; col < 64; col++ {
		b.RD(0, col).Wait(p.TCCDL)
	}
	b.Wait(p.TRTP).PRE(0).Wait(p.TRP)
	prog := b.Program()
	var start clock.PS
	run := func() {
		e.DrainReadback()
		res, err := e.Exec(prog, start, nil)
		if err != nil || res.Reads != 64 {
			t.Fatalf("Exec: reads=%d err=%v", res.Reads, err)
		}
		start += res.Elapsed
	}
	run() // warm: sizes the readback buffer and allocates the row's data
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("buffered Exec allocates %.1f times per run, want 0", n)
	}
}
