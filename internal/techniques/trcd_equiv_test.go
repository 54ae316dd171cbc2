package techniques

import (
	"fmt"
	"sort"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/dram"
)

// The whole-row profiling fast path must be observationally identical to
// the per-line path: same weak-row sets, same ProfileStats, same
// MinReliableTRCD grid results — on both the scaled and unscaled system
// configurations. The tests below run each path on its own fresh system
// (profiling outcomes are a pure function of the seeded variation model and
// the requested tRCD, so fresh systems are directly comparable).

func equivConfigs() map[string]core.Config {
	scaled := core.TimeScalingA57()
	scaled.DRAM = core.TechniqueDRAM()
	scaled.DRAM.RowsPerBank = 4096
	unscaled := core.NoTimeScaling()
	unscaled.DRAM = core.TechniqueDRAM()
	unscaled.DRAM.RowsPerBank = 4096
	return map[string]core.Config{"scaled": scaled, "unscaled": unscaled}
}

func mustSystem(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestProfileWeakRowsRowPathEquivalence(t *testing.T) {
	const span = 192 * 8192
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			rowSys := mustSystem(t, cfg)
			lineSys := mustSystem(t, cfg)

			weakRow, statsRow, err := ProfileWeakRows(rowSys, 0, span, ReducedTRCD)
			if err != nil {
				t.Fatalf("row path: %v", err)
			}
			weakLine, statsLine, err := ProfileWeakRowsPerLine(lineSys, 0, span, ReducedTRCD)
			if err != nil {
				t.Fatalf("per-line path: %v", err)
			}

			if len(weakRow) != len(weakLine) {
				t.Fatalf("weak-row counts differ: row path %d, per-line %d", len(weakRow), len(weakLine))
			}
			for i := range weakRow {
				if weakRow[i] != weakLine[i] {
					t.Fatalf("weak set diverges at %d: row path %#x, per-line %#x", i, weakRow[i], weakLine[i])
				}
			}
			if statsRow != statsLine {
				t.Fatalf("ProfileStats differ: row path %+v, per-line %+v", statsRow, statsLine)
			}

			// The round-trip reduction is the point of the fast path: one
			// host request per row versus up to one per line.
			rowTrips, lineTrips := rowSys.HostRequests(), lineSys.HostRequests()
			if rowTrips == 0 || lineTrips == 0 {
				t.Fatalf("host request counters not tracking (row %d, line %d)", rowTrips, lineTrips)
			}
			if lineTrips < 10*rowTrips {
				t.Fatalf("round-trip reduction %.1fx < 10x (row path %d, per-line %d)",
					float64(lineTrips)/float64(rowTrips), rowTrips, lineTrips)
			}
		})
	}
}

func TestMinReliableTRCDRowPathEquivalence(t *testing.T) {
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			rowSys := mustSystem(t, cfg)
			lineSys := mustSystem(t, cfg)
			nominal := rowSys.Chip().Timing().TRCD
			for i := 0; i < 24; i++ {
				base := uint64(i) * 8192
				viaRow, err := MinReliableTRCD(rowSys, base, nominal)
				if err != nil {
					t.Fatal(err)
				}
				viaLine, err := MinReliableTRCDPerLine(lineSys, base, nominal)
				if err != nil {
					t.Fatal(err)
				}
				if viaRow != viaLine {
					t.Fatalf("row %d: whole-row path %v, per-line path %v", i, viaRow, viaLine)
				}
			}
		})
	}
}

// TestProfileRowStripeMatchesWholeRowPath pins the bank-stripe program
// against repeated single-row requests: per-row pass/fail and the failing
// row's leading-line count must agree, and the stripe must cost one host
// round-trip where the whole-row path costs one per row.
func TestProfileRowStripeMatchesWholeRowPath(t *testing.T) {
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			stripeSys := mustSystem(t, cfg)
			rowSys := mustSystem(t, cfg)
			m := stripeSys.Mapper()
			rowBytes := uint64(m.RowBytes())
			lines := m.RowBytes() / 64
			const rows = 48
			// Consecutive DRAM rows of bank 0 sit one bank rotation apart
			// physically under the default mapping.
			bankStride := rowBytes * uint64(m.Banks())

			before := stripeSys.HostRequests()
			rowLines, gotOK, err := stripeSys.ProfileRowStripe(0, rows, ReducedTRCD)
			if err != nil {
				t.Fatal(err)
			}
			if stripeSys.HostRequests()-before != 1 {
				t.Fatalf("stripe cost %d round-trips, want 1", stripeSys.HostRequests()-before)
			}
			if len(rowLines) != rows {
				t.Fatalf("stripe returned %d rows, want %d", len(rowLines), rows)
			}

			wantOK := true
			for r := 0; r < rows; r++ {
				one, ok, err := rowSys.ProfileRowStripe(uint64(r)*bankStride, 1, ReducedTRCD)
				if err != nil {
					t.Fatal(err)
				}
				okLines := one[0]
				if !ok {
					wantOK = false
				} else {
					okLines = lines
				}
				if rowLines[r] != okLines {
					t.Fatalf("stripe row %d: %d leading lines, whole-row path says %d", r, rowLines[r], okLines)
				}
			}
			if gotOK != wantOK {
				t.Fatalf("stripe ok=%v, whole-row path ok=%v", gotOK, wantOK)
			}
		})
	}
}

// ProfileWeakRowsPerLine is the original line-at-a-time characterization:
// one profiling request round-trip per cache line, stopping at a row's
// first failure. It is the reference the whole-row fast path is
// equivalence-tested against.
func ProfileWeakRowsPerLine(sys *core.System, start, end uint64, rcd clock.PS) ([]uint64, ProfileStats, error) {
	var stats ProfileStats
	var weak []uint64
	m := sys.Mapper()
	cols := m.RowBytes() / int(dram.LineBytes)
	for _, group := range coveredRows(m, start, end) {
		for _, ref := range group.rows {
			stats.Rows++
			rowWeak := false
			for col := 0; col < cols; col++ {
				stats.LinesTried++
				pa := m.Unmap(dram.Addr{Chan: group.ch, Bank: group.bank, Row: ref.row, Col: col})
				ok, err := sys.ProfileLine(pa, rcd)
				if err != nil {
					return nil, stats, fmt.Errorf("techniques: profiling row %#x: %w", ref.key, err)
				}
				if !ok {
					rowWeak = true
					break
				}
			}
			if rowWeak {
				stats.WeakRows++
				weak = append(weak, ref.key)
			}
		}
	}
	sort.Slice(weak, func(i, j int) bool { return weak[i] < weak[j] })
	return weak, stats, nil
}

// MinReliableTRCDPerLine is the line-at-a-time variant of MinReliableTRCD,
// the equivalence-test reference for the whole-row path.
func MinReliableTRCDPerLine(sys *core.System, rowBase uint64, nominal clock.PS) (clock.PS, error) {
	m := sys.Mapper()
	a := m.Map(rowBase)
	cols := m.RowBytes() / int(dram.LineBytes)
	for _, lv := range RCDLevels {
		allOK := true
		for col := 0; col < cols; col++ {
			pa := m.Unmap(dram.Addr{Chan: a.Chan, Bank: a.Bank, Row: a.Row, Col: col})
			ok, err := sys.ProfileLine(pa, lv)
			if err != nil {
				return 0, err
			}
			if !ok {
				allOK = false
				break
			}
		}
		if allOK {
			return lv, nil
		}
	}
	return nominal, nil
}
