package techniques

import (
	"fmt"
	"sort"

	"easydram/internal/bender"
	"easydram/internal/bloom"
	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/smc"
)

// ReducedTRCD is the aggressive tRCD the technique uses for strong rows
// (§8.1: rows reliable at <=9.0 ns are strong).
const ReducedTRCD = clock.PS(9000)

// profileStripeRows is the bank-stripe size ProfileWeakRows requests per
// host round-trip. The Bender program capability is bender.StripeRowsMax
// (64 rows, the readback-buffer bound), but per-request throughput on the
// emulation host peaks well below it: an 8-row stripe's readback (~64 KiB)
// stays cache-resident through the produce-then-scan pass, while 16+ rows
// fall off a cache cliff and run slower than single-row requests. Eight
// keeps the 8x round-trip reduction AND the fastest measured rows/sec.
const profileStripeRows = 8

// The scan stripe must fit the Bender program capability.
var _ [bender.StripeRowsMax - profileStripeRows]struct{}

// RCDLevels is the characterization grid of Figure 12.
var RCDLevels = []clock.PS{9000, 9500, 10000, 10500}

// ProfileStats summarises a characterization pass.
type ProfileStats struct {
	Rows       int
	WeakRows   int
	LinesTried int
}

// StrongFraction reports the measured fraction of strong rows.
func (s ProfileStats) StrongFraction() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.Rows-s.WeakRows) / float64(s.Rows)
}

// ProfileWeakRows characterizes every DRAM row the physical address range
// [start, end) touches at the reduced tRCD (§8.1), on every channel of the
// module (rows are enumerated through the topology mapper, so channel
// interleaving is handled; the former single-channel restriction is gone).
// A row is weak if any of its lines fails. The returned slice holds the
// weak rows' keys — the physical address of each row's first line,
// channel coordinate included — ascending.
//
// Rows are profiled in bank stripes: one host round-trip and one Bender
// program covers up to 64 consecutive same-bank rows (the readback-buffer
// bound, bender.StripeRowsMax) — down from one round-trip per row, and two
// orders of magnitude below the original one per line. A stripe reports the
// leading reliable lines, so when a weak row interrupts it the scan records
// that row and resumes the stripe just past it; weak-row sets and
// ProfileStats stay identical to the line-at-a-time path the equivalence
// tests keep as their reference.
func ProfileWeakRows(sys *core.System, start, end uint64, rcd clock.PS) ([]uint64, ProfileStats, error) {
	var stats ProfileStats
	var weak []uint64
	lines := sys.Mapper().RowBytes() / int(dram.LineBytes)

	for _, group := range coveredRows(sys.Mapper(), start, end) {
		refs := group.rows
		for i := 0; i < len(refs); {
			// Extend the stripe while DRAM rows stay consecutive.
			n := 1
			for n < profileStripeRows && i+n < len(refs) && refs[i+n].row == refs[i].row+n {
				n++
			}
			rowLines, _, err := sys.ProfileRowStripe(refs[i].key, n, rcd)
			if err != nil {
				return nil, stats, fmt.Errorf("techniques: profiling rows at %#x: %w", refs[i].key, err)
			}
			if len(rowLines) != n {
				return nil, stats, fmt.Errorf("techniques: stripe at %#x returned %d rows, want %d", refs[i].key, len(rowLines), n)
			}
			for r, okLines := range rowLines {
				stats.Rows++
				if okLines == lines {
					stats.LinesTried += lines
				} else {
					// Mirror the per-line path's stop-at-first-failure
					// accounting: the failing line is the last one tried.
					stats.LinesTried += okLines + 1
					stats.WeakRows++
					weak = append(weak, refs[i+r].key)
				}
			}
			i += n
		}
	}
	sort.Slice(weak, func(i, j int) bool { return weak[i] < weak[j] })
	return weak, stats, nil
}

// rowRef identifies one DRAM row covered by a profiling range: its row
// index within its (channel, bank) group and its row key — the physical
// address of the row's first line, which routes host profiling requests to
// the owning channel and keys the weak-row set.
type rowRef struct {
	row int
	key uint64
}

// rowGroup is the covered rows of one (channel, bank), rows ascending.
type rowGroup struct {
	ch, bank int
	rows     []rowRef
}

// rowCoord is one deduplicated (channel, bank, row) coordinate.
type rowCoord struct{ ch, bank, row int }

// coveredRows enumerates the DRAM rows the physical range [start, end)
// touches, grouped by (channel, bank) and sorted — the topology-aware
// generalisation of the old single-channel row-block walk. When a
// rowBytes-aligned block's first and last lines land in the same DRAM row
// the whole block is that row (a line-interleaved multi-channel block
// scatters its first and last lines to different channels, so it never
// passes the probe), and the block costs two Map calls instead of one per
// line; blocks that fail the probe fall back to a per-line walk with a
// per-channel last-row cache, since a channel's consecutive lines share a
// row. On a single-channel module the result is exactly the
// rowBytes-aligned blocks of [start&^(rowBytes-1), end).
func coveredRows(m smc.Mapper, start, end uint64) []rowGroup {
	rowBytes := uint64(m.RowBytes())
	start &^= rowBytes - 1
	var (
		coords []rowCoord
		seen   = map[rowCoord]bool{}
		last   []rowCoord // per-channel last coordinate ({-1,-1,-1} = none)
	)
	add := func(c rowCoord) {
		if !seen[c] {
			seen[c] = true
			coords = append(coords, c)
		}
	}
	for base := start; base < end; base += rowBytes {
		blockEnd := base + rowBytes
		if blockEnd <= end {
			a, z := m.Map(base), m.Map(blockEnd-dram.LineBytes)
			if a.Chan == z.Chan && a.Bank == z.Bank && a.Row == z.Row {
				add(rowCoord{a.Chan, a.Bank, a.Row})
				continue
			}
		} else {
			blockEnd = end
		}
		for pa := base; pa < blockEnd; pa += dram.LineBytes {
			a := m.Map(pa)
			c := rowCoord{a.Chan, a.Bank, a.Row}
			for a.Chan >= len(last) {
				last = append(last, rowCoord{-1, -1, -1})
			}
			if last[a.Chan] != c {
				last[a.Chan] = c
				add(c)
			}
		}
	}
	sort.Slice(coords, func(i, j int) bool {
		if coords[i].ch != coords[j].ch {
			return coords[i].ch < coords[j].ch
		}
		if coords[i].bank != coords[j].bank {
			return coords[i].bank < coords[j].bank
		}
		return coords[i].row < coords[j].row
	})
	var groups []rowGroup
	for _, c := range coords {
		if n := len(groups); n == 0 || groups[n-1].ch != c.ch || groups[n-1].bank != c.bank {
			groups = append(groups, rowGroup{ch: c.ch, bank: c.bank})
		}
		g := &groups[len(groups)-1]
		g.rows = append(g.rows, rowRef{
			row: c.row,
			key: m.Unmap(dram.Addr{Chan: c.ch, Bank: c.bank, Row: c.row}),
		})
	}
	return groups
}

// MinReliableTRCD characterizes one row against the full level grid and
// returns the smallest tRCD at which every line reads reliably (the value
// Figure 12 plots). Nominal tRCD is returned when even the largest grid
// level fails. Each level costs one whole-row request round-trip.
func MinReliableTRCD(sys *core.System, rowBase uint64, nominal clock.PS) (clock.PS, error) {
	for _, lv := range RCDLevels {
		_, ok, err := sys.ProfileRowStripe(rowBase, 1, lv)
		if err != nil {
			return 0, err
		}
		if ok {
			return lv, nil
		}
	}
	return nominal, nil
}

// BuildWeakRowFilter inserts the weak rows into a Bloom filter sized for
// the observed weak population at the given false-positive rate (§8.2,
// RAIDR-style).
func BuildWeakRowFilter(weakRows []uint64, fpRate float64, seed uint64) (*bloom.Filter, error) {
	n := len(weakRows)
	if n == 0 {
		n = 1
	}
	f, err := bloom.NewForCapacity(n, fpRate, seed)
	if err != nil {
		return nil, fmt.Errorf("techniques: %w", err)
	}
	for _, r := range weakRows {
		f.Add(r)
	}
	return f, nil
}

// TRCDProvider returns the scheduler hook: strong rows activate with the
// reduced tRCD; rows in the weak-row filter (plus false positives) use the
// nominal value. Rows outside the profiled range are conservatively
// nominal. The row key preserves the channel coordinate, so one filter
// covering a multi-channel characterization pass answers correctly for
// every channel's controller.
func TRCDProvider(f *bloom.Filter, m smc.Mapper, profiledStart, profiledEnd uint64, reduced clock.PS) smc.TRCDProvider {
	return func(a dram.Addr) clock.PS {
		rowBase := m.Unmap(dram.Addr{Chan: a.Chan, Bank: a.Bank, Row: a.Row})
		if rowBase < profiledStart || rowBase >= profiledEnd {
			return 0 // nominal
		}
		if f.Contains(rowBase) {
			return 0 // weak (or false positive): nominal
		}
		return reduced
	}
}
