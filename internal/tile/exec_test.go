package tile

import (
	"testing"

	"easydram/internal/bender"
	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/fault"
)

// TestExecDiscardReadsMatchesEngineExec checks the by-reference result seam:
// the Result a tile's Exec(true) returns must equal what a plain
// bender.Engine.Exec reports for the same program on a twin device, one
// program at a time, so no counter carries over from the previous program.
// An injected launch failure reports LaunchFailed alone and leaves the
// program in the builder for the retry. The tile's DRAM cursor and Stats
// must track the twin's.
func TestExecDiscardReadsMatchesEngineExec(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twinChip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := New(chip, DefaultCostModel())
	eng := bender.NewEngine(twinChip, 0)
	p := chip.Timing()
	period := p.Bus.Period()
	pattern := make([]byte, dram.LineBytes)
	for i := range pattern {
		pattern[i] = byte(i)
	}

	programs := []struct {
		name  string
		build func(b *bender.Builder)
	}{
		{"act-rd-wr-pre", func(b *bender.Builder) {
			b.ACT(1, 7).Wait(p.TRCD - period)
			b.RD(1, 3).RD(1, 4).Wait(p.TCCDL)
			b.WR(1, 5, pattern).Wait(p.TCWL + p.TBL + p.TWR)
			b.PRE(1).Wait(p.TRP - period)
		}},
		// Fewer commands than the previous program: a carried-over count
		// would show here.
		{"refresh", func(b *bender.Builder) {
			b.REF().Wait(p.TRP)
		}},
		{"loop", func(b *bender.Builder) {
			b.ACT(2, 9).Wait(p.TRCD - period)
			b.Loop(0, 5, func(b *bender.Builder) {
				b.RD(2, 1).Wait(p.TCCDL)
				b.WR(2, 2, nil).Wait(p.TCCDL)
			})
			b.Wait(p.TWR + p.TRTP)
			b.PRE(2).Wait(p.TRP - period)
		}},
		{"launch-fail", func(b *bender.Builder) {
			b.ACT(3, 11).Wait(p.TRCD - period)
			b.RD(3, 0)
			b.Wait(p.TRTP).PRE(3)
		}},
		{"wait-only", func(b *bender.Builder) {
			b.WaitCycles(4)
		}},
	}

	var cursor clock.PS
	var want Stats
	for _, pr := range programs {
		b := tl.Builder()
		pr.build(b)
		prog := append([]bender.Instr(nil), b.Program()...)
		wrbuf := append([][]byte(nil), b.WriteBuf()...)

		if pr.name == "launch-fail" {
			tl.SetFaultLink(fault.NewLinkModel(fault.LinkConfig{ExecFailRate: 1}, 1))
			res, rb, err := tl.Exec(true)
			if err != nil || rb != nil {
				t.Fatalf("%s: err %v, %d readback lines", pr.name, err, len(rb))
			}
			if *res != (bender.Result{LaunchFailed: true}) {
				t.Fatalf("%s: failed launch reported %+v, want LaunchFailed alone", pr.name, *res)
			}
			if tl.Builder().Len() != len(prog)-1 {
				t.Fatalf("%s: builder holds %d instrs after a failed launch, want %d", pr.name, tl.Builder().Len(), len(prog)-1)
			}
			want.LaunchFails++
			tl.SetFaultLink(nil)
		}

		got, rb, err := tl.Exec(true)
		if err != nil || rb != nil {
			t.Fatalf("%s: tile: err %v, %d readback lines", pr.name, err, len(rb))
		}
		ref, err := eng.Exec(prog, cursor, wrbuf)
		if err != nil {
			t.Fatalf("%s: engine: %v", pr.name, err)
		}
		if *got != ref {
			t.Fatalf("%s: Exec(true) = %+v, Engine.Exec = %+v", pr.name, *got, ref)
		}
		if ref.Commands == 0 && pr.name != "wait-only" {
			t.Fatalf("%s: program issued no commands", pr.name)
		}
		eng.DrainReadback()
		cursor += ref.Elapsed + period
		want.ProgramsRun++
		want.InstrsRun += int64(len(prog))
		if tl.dramCursor != cursor {
			t.Fatalf("%s: tile cursor %d, want %d", pr.name, tl.dramCursor, cursor)
		}
		if tl.Stats() != want {
			t.Fatalf("%s: tile stats %+v, want %+v", pr.name, tl.Stats(), want)
		}
		if tl.Builder().Len() != 0 {
			t.Fatalf("%s: builder not reset after exec", pr.name)
		}
	}
}

// TestExecRejectsWideOperands checks the error path for an operand the
// 16-byte instruction cannot hold: Exec names the opcode and value, runs
// nothing (chip and tile statistics and the DRAM cursor stay put), and
// resets the builder so the next program runs normally.
func TestExecRejectsWideOperands(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := New(chip, DefaultCostModel())
	p := chip.Timing()
	for _, tc := range []struct {
		name  string
		build func(b *bender.Builder)
		want  string
	}{
		{"WaitCycles", func(b *bender.Builder) { b.WaitCycles(1 << 40) }, "tile: bender: WAIT operand 1099511627776 does not fit in 32 bits"},
		{"Loop", func(b *bender.Builder) {
			b.Loop(0, 1<<40, func(b *bender.Builder) { b.REF().Wait(p.TRFC) })
		}, "tile: bender: LDI operand 1099511627776 does not fit in 32 bits"},
		{"ACT", func(b *bender.Builder) {
			b.ACT(0, 1<<33).Wait(p.TRCD).RD(0, 0).PRE(0)
		}, "tile: bender: ACT operand 8589934592 does not fit in 32 bits"},
	} {
		chipBefore, tileBefore, cursor := chip.Stats(), tl.Stats(), tl.dramCursor
		b := tl.Builder()
		b.REF().Wait(p.TRFC)
		tc.build(b)
		res, rb, err := tl.Exec(false)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: err %v, want %q", tc.name, err, tc.want)
		}
		if *res != (bender.Result{}) || rb != nil {
			t.Fatalf("%s: result %+v with %d readback lines, want none", tc.name, *res, len(rb))
		}
		if chip.Stats() != chipBefore || tl.Stats() != tileBefore || tl.dramCursor != cursor {
			t.Fatalf("%s: the rejected program ran: chip %+v, tile %+v, cursor %d", tc.name, chip.Stats(), tl.Stats(), tl.dramCursor)
		}
		if b.Len() != 0 || b.Err() != nil {
			t.Fatalf("%s: builder holds %d instrs and Err %v after the error", tc.name, b.Len(), b.Err())
		}
	}
	tl.Builder().REF()
	if _, _, err := tl.Exec(true); err != nil || chip.Stats().REFs != 1 {
		t.Fatalf("program after the rejected ones: err %v, %d REFs", err, chip.Stats().REFs)
	}
}
