package bender_test

import (
	"fmt"
	"reflect"
	"testing"

	"easydram/internal/bender"
	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/techniques"
	"easydram/internal/timing"
)

// TestProfileRowMatchesProfileChecks pins ProfileRow's precomputed waits
// and block copies: its program and write buffer must equal the
// initialization prefix (ACT, WAIT, staged WRs, PRE) followed by one
// ProfileCheck per column, at every characterization level, at nominal
// tRCD and at a tRCD that is not a whole number of bus periods, for column
// counts on both sides of every doubling step.
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
	const bank, row = 5, 77
	for _, cols := range []int{1, 2, 3, 5, 64, 127, 128} {
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
			requireSameProgram(t, fmt.Sprintf("cols %d rcd %v", cols, rcd), got, want)
		}
	}
}

// TestProfileRowStripeMatchesRows checks that a two-row stripe is the two
// rows' ProfileRow programs back to back, including the second row's
// block copies, which start part-way into the program.
func TestProfileRowStripeMatchesRows(t *testing.T) {
	p := timing.DDR41333()
	pattern := make([]byte, dram.LineBytes)
	for i := range pattern {
		pattern[i] = byte(i ^ 0x5a)
	}
	const bank, row = 3, 200
	for _, cols := range []int{1, 5, 128} {
		got := bender.NewBuilder(p)
		got.ProfileRowStripe(bank, row, 2, cols, pattern, 9100)
		want := bender.NewBuilder(p)
		want.ProfileRow(bank, row, cols, pattern, 9100)
		want.ProfileRow(bank, row+1, cols, pattern, 9100)
		requireSameProgram(t, fmt.Sprintf("cols %d", cols), got, want)
	}
}

func requireSameProgram(t *testing.T, what string, got, want *bender.Builder) {
	t.Helper()
	if g, w := got.Program(), want.Program(); !reflect.DeepEqual(g, w) {
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s: instruction %d is %v, want %v", what, i, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d instructions, want %d", what, len(g), len(w))
	}
	if !reflect.DeepEqual(got.WriteBuf(), want.WriteBuf()) {
		t.Fatalf("%s: write buffers differ", what)
	}
}
