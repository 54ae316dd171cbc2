package core

import (
	"reflect"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/fault"
)

// TestProfileRowStripeBounds pins that a stripe request the controller
// cannot serve is an error, not a panic: a stripe running past the bank's
// last row and a negative row count are both rejected before any command is
// built. The rejected request must leave the controller's table, so the
// same System keeps serving host requests afterwards.
func TestProfileRowStripeBounds(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.DRAM = TechniqueDRAM()
	last := cfg.DRAM.RowsPerBank - 1
	nominal := cfg.DRAM.Timing.TRCD
	cases := []struct {
		name      string
		row, rows int
	}{
		{"runs past the last row", last - 1, 8},
		{"one row past the last row", last, 2},
		{"negative rows", 0, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pa := sys.Mapper().Unmap(dram.Addr{Bank: 3, Row: tc.row})
			if _, _, err := sys.ProfileRowStripe(pa, tc.rows, nominal); err == nil {
				t.Fatalf("stripe of %d rows from row %d accepted", tc.rows, tc.row)
			}
			// The bank's final stripe still fits, and serves normally.
			end := sys.Mapper().Unmap(dram.Addr{Bank: 3, Row: last - 7})
			rowLines, ok, err := sys.ProfileRowStripe(end, 8, nominal)
			if err != nil || !ok || len(rowLines) != 8 {
				t.Fatalf("final stripe after a rejected request: %d rows, ok=%v, err=%v", len(rowLines), ok, err)
			}
		})
	}
}

// profileProbe is one host profiling request: a single line (rows == 0) or
// a stripe of rows rows from row.
type profileProbe struct {
	row, col, rows int
}

// profileVerdict is a probe's outcome: the per-row leading-line counts
// (nil for a line probe) and the pass/fail verdict.
type profileVerdict struct {
	rowLines []int
	ok       bool
}

// runProbes runs probes in order on bank 2 of sys at rcd and returns their
// verdicts. check, when non-nil, sees each verdict as it lands, with whether
// the host link damaged (shortened or corrupted) that probe's readback.
func runProbes(t *testing.T, sys *System, probes []profileProbe, rcd clock.PS, check func(i int, v profileVerdict, damaged bool)) []profileVerdict {
	t.Helper()
	out := make([]profileVerdict, len(probes))
	for i, p := range probes {
		before := sys.chans[0].tile.Stats()
		pa := sys.Mapper().Unmap(dram.Addr{Bank: 2, Row: p.row, Col: p.col})
		var v profileVerdict
		var err error
		if p.rows == 0 {
			v.ok, err = sys.ProfileLine(pa, rcd)
		} else {
			v.rowLines, v.ok, err = sys.ProfileRowStripe(pa, p.rows, rcd)
		}
		if err != nil {
			t.Fatalf("probe %d %+v: %v", i, p, err)
		}
		after := sys.chans[0].tile.Stats()
		damaged := after.ShortReadbacks != before.ShortReadbacks || after.CorruptLines != before.CorruptLines
		if check != nil {
			check(i, v, damaged)
		}
		out[i] = v
	}
	return out
}

// TestProfileUnderLinkFaults pins §8.1 profiling under an armed host link:
// line, single-row and 8-row-stripe probes run with launch failures,
// dropped readback tails and corrupted readback lines firing. With recovery
// on, every verdict equals a fault-free twin's and the controller re-probed
// or re-flushed along the way. With recovery off (readback damage only:
// launch failures require recovery), a probe whose readback the link
// damaged never reports a pass, and an undamaged one still matches the
// twin.
func TestProfileUnderLinkFaults(t *testing.T) {
	const rcd = clock.PS(9000)
	// Bank 2 of this silicon has weak rows at 653-743 and 805-878, so each
	// probe kind below straddles strong and weak rows.
	var probes []profileProbe
	for r := 648; r < 664; r++ {
		probes = append(probes, profileProbe{row: r, col: r * 7 % 128})
	}
	for r := 740; r < 756; r++ {
		probes = append(probes, profileProbe{row: r, rows: 1})
	}
	for r := 792; r < 856; r += 8 {
		probes = append(probes, profileProbe{row: r, rows: 8})
	}

	cfg := TimeScalingA57()
	cfg.DRAM = TechniqueDRAM()
	cfg.DRAM.RowsPerBank = 4096
	twin, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runProbes(t, twin, probes, rcd, nil)
	passes := 0
	for _, v := range want {
		if v.ok {
			passes++
		}
	}
	if passes == 0 || passes == len(want) {
		t.Fatalf("fault-free twin: %d of %d probes pass; the probe set must mix verdicts", passes, len(want))
	}

	t.Run("recovery", func(t *testing.T) {
		fc := cfg
		fc.Faults = fault.Config{
			Link: fault.LinkConfig{
				ExecFailRate:        0.1,
				ReadbackCorruptRate: 0.1,
				ReadbackDropRate:    0.1,
			},
			Recovery: fault.RecoveryConfig{Enabled: true},
		}
		sys, err := NewSystem(fc)
		if err != nil {
			t.Fatal(err)
		}
		got := runProbes(t, sys, probes, rcd, nil)
		for i := range probes {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("probe %d %+v: %+v under link faults, fault-free twin %+v", i, probes[i], got[i], want[i])
			}
		}
		st := sys.chans[0].tile.Stats()
		if st.LaunchFails == 0 || st.ShortReadbacks == 0 || st.CorruptLines == 0 {
			t.Fatalf("link faults did not all fire: %+v", st)
		}
		if cs := sys.chans[0].ctl.Stats(); cs.Retries == 0 || cs.RetryGiveUps != 0 {
			t.Fatalf("retries %d, give-ups %d; want re-probes and no give-up", cs.Retries, cs.RetryGiveUps)
		}
	})

	t.Run("no recovery", func(t *testing.T) {
		fc := cfg
		fc.Faults = fault.Config{
			Link: fault.LinkConfig{
				ReadbackCorruptRate: 0.3,
				ReadbackDropRate:    0.3,
			},
		}
		sys, err := NewSystem(fc)
		if err != nil {
			t.Fatal(err)
		}
		// Count damaged probes the twin passes: only those can show a
		// damaged readback wrongly reported as a pass.
		damaged := 0
		runProbes(t, sys, probes, rcd, func(i int, v profileVerdict, hit bool) {
			switch {
			case hit && v.ok:
				t.Errorf("probe %d %+v: damaged readback reported a pass", i, probes[i])
			case hit:
				if want[i].ok {
					damaged++
				}
			case !reflect.DeepEqual(v, want[i]):
				t.Errorf("probe %d %+v: undamaged verdict %+v, fault-free twin %+v", i, probes[i], v, want[i])
			}
		})
		if damaged == 0 {
			t.Fatal("no passing probe's readback was damaged; the check is vacuous")
		}
		if cs := sys.chans[0].ctl.Stats(); cs.Retries != 0 {
			t.Fatalf("recovery off but %d retries", cs.Retries)
		}
	})
}
