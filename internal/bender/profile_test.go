package bender_test

import (
	"reflect"
	"testing"

	"easydram/internal/bender"
	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/techniques"
	"easydram/internal/timing"
)

// TestProfileRowMatchesProfileChecks pins ProfileRow's precomputed waits:
// its program and write buffer must equal the initialization prefix
// (ACT, WAIT, staged WRs, PRE) followed by one ProfileCheck per column, at
// every characterization level, at nominal tRCD and at a tRCD that is not a
// whole number of bus periods.
func TestProfileRowMatchesProfileChecks(t *testing.T) {
	p := timing.DDR41333()
	period := p.Bus.Period()
	rcds := append([]clock.PS{p.TRCD, 9100}, techniques.RCDLevels...)
	if 9100%period == 0 {
		t.Fatalf("9100 ps is a multiple of the %v bus period", period)
	}
	pattern := make([]byte, dram.LineBytes)
	for i := range pattern {
		pattern[i] = byte(3 * i)
	}
	const bank, row, cols = 5, 77, 128
	for _, rcd := range rcds {
		got := bender.NewBuilder(p)
		got.ProfileRow(bank, row, cols, pattern, rcd)

		want := bender.NewBuilder(p)
		want.ACT(bank, row).Wait(p.TRCD - period)
		idx := want.StageWrite(pattern)
		for col := 0; col < cols; col++ {
			want.WRStaged(bank, col, idx)
			if col != cols-1 {
				want.Wait(p.TCCDL - period)
			}
		}
		want.Wait(p.TCWL + p.TBL + p.TWR).PRE(bank).Wait(p.TRP - period)
		for col := 0; col < cols; col++ {
			want.ProfileCheck(dram.Addr{Bank: bank, Row: row, Col: col}, rcd)
		}

		if g, w := got.Program(), want.Program(); !reflect.DeepEqual(g, w) {
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("rcd %v: instruction %d is %v, want %v", rcd, i, g[i], w[i])
				}
			}
			t.Fatalf("rcd %v: %d instructions, want %d", rcd, len(g), len(w))
		}
		if !reflect.DeepEqual(got.WriteBuf(), want.WriteBuf()) {
			t.Fatalf("rcd %v: write buffers differ", rcd)
		}
	}
}
