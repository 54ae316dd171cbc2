// Package variation models DRAM process variation: the per-cell behaviour of
// a real chip that EasyDRAM observes by operating real DDR4 modules.
//
// The paper's experiments depend on three real-chip phenomena:
//
//  1. Every row has a minimum reliable tRCD below the nominal 13.5 ns, most
//     rows (84.5%) operate at <=9.0 ns, and weak rows cluster spatially
//     (Figure 12).
//  2. RowClone (ACT-PRE-ACT) succeeds only between rows of the same subarray
//     and, even then, only for some row pairs; success is stable per pair.
//  3. Reading a row earlier than its minimum reliable tRCD corrupts data.
//
// This package substitutes a deterministic, seeded model for silicon: every
// query is a pure function of (seed, geometry, coordinates), so the profiled
// maps in Figure 12 and the clonability maps are reproducible bit-for-bit.
package variation

import (
	"fmt"

	"easydram/internal/clock"
)

// Geometry describes the DRAM organization the model applies to.
type Geometry struct {
	Banks        int
	RowsPerBank  int
	ColsPerRow   int // cache-line-sized columns per row
	SubarrayRows int // rows per subarray
}

// Validate reports an error if the geometry is unusable.
func (g Geometry) Validate() error {
	switch {
	case g.Banks <= 0:
		return errf("banks must be positive, got %d", g.Banks)
	case g.RowsPerBank <= 0:
		return errf("rows per bank must be positive, got %d", g.RowsPerBank)
	case g.ColsPerRow <= 0:
		return errf("columns per row must be positive, got %d", g.ColsPerRow)
	case g.SubarrayRows <= 0:
		return errf("subarray rows must be positive, got %d", g.SubarrayRows)
	}
	return nil
}

// Subarray reports the subarray index that row belongs to.
func (g Geometry) Subarray(row int) int { return row / g.SubarrayRows }

// Model is a seeded process-variation model. The zero value is not usable;
// construct with NewModel.
type Model struct {
	geom Geometry
	seed uint64

	// clonableP is the per-pair probability (in 1/256ths) that an
	// intra-subarray row pair supports reliable RowClone.
	clonableP uint64
}

// Option configures a Model.
type Option func(*Model)

// WithClonableFraction sets the fraction (0..1) of intra-subarray row pairs
// that can perform RowClone reliably. The default is 0.85, consistent with
// the fallback behaviour the paper reports for Init workloads.
func WithClonableFraction(f float64) Option {
	return func(m *Model) {
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		m.clonableP = uint64(f * 256)
	}
}

// NewModel returns a variation model for the given geometry and seed.
func NewModel(geom Geometry, seed uint64, opts ...Option) (*Model, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		geom:      geom,
		seed:      seed,
		clonableP: 218, // ~0.85 * 256
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Geometry returns the geometry the model covers.
func (m *Model) Geometry() Geometry { return m.geom }

// rcdLevels is the quantized minimum-reliable-tRCD grid observed in
// Figure 12: 9.0, 9.5, 10.0, 10.5 ns.
var rcdLevels = [4]clock.PS{9000, 9500, 10000, 10500}

// StrongThreshold is the strong/weak boundary the paper uses: rows reliable
// at <=9.0 ns are strong.
const StrongThreshold = clock.PS(9000)

// MinTRCDRow reports the minimum tRCD at which every cache line of the row
// reads reliably. This is the value Figure 12 plots and the value the
// tRCD-reduction scheduler keys its Bloom filter on.
//
// Weak rows are spatially clustered: a smooth two-dimensional noise field
// over (row-group, bank-region) coordinates is thresholded so that about
// 84.5% of rows land at 9.0 ns and the rest spread over 9.5-10.5 ns in
// contiguous patches.
func (m *Model) MinTRCDRow(bank, row int) clock.PS {
	n := m.noise(bank, row)
	// n is uniform-ish in [0,1) but spatially smooth. Threshold so ~84.5%
	// of mass is strong; spread the weak tail over three levels.
	switch {
	case n < 0.845:
		return rcdLevels[0]
	case n < 0.91:
		return rcdLevels[1]
	case n < 0.965:
		return rcdLevels[2]
	default:
		return rcdLevels[3]
	}
}

// MinTRCDLine reports the minimum reliable tRCD of a single cache line.
// Lines within a row jitter at or below the row value; every row has
// exactly one deterministic weakest line that defines the row value (the
// scheduler strategy in §8.2 keys on the weakest line per row).
func (m *Model) MinTRCDLine(bank, row, col int) clock.PS {
	rowV := m.MinTRCDRow(bank, row)
	if rowV == rcdLevels[0] {
		return rowV
	}
	weakCol := int(splitmix(m.seed^0x11c0ffee^key(bank, row, 0)) % uint64(m.geom.ColsPerRow))
	if col == weakCol {
		return rowV // this is the row's weakest line
	}
	// Other lines are one level stronger (bounded below by the strong
	// level).
	for i, lv := range rcdLevels {
		if lv == rowV && i > 0 {
			return rcdLevels[i-1]
		}
	}
	return rowV
}

// LineThresholds reports a row's per-line minimum reliable tRCDs from one
// evaluation of the noise field: MinTRCDLine(bank, row, col) is weak when
// col == weakCol and other for every other column. A strong row has no
// weakest line (weakCol -1, weak == other). The chip model's reduced-tRCD
// reads test every line of a row in turn, so they call this once per row
// instead of MinTRCDLine once per line.
func (m *Model) LineThresholds(bank, row int) (weakCol int, weak, other clock.PS) {
	rowV := m.MinTRCDRow(bank, row)
	if rowV == rcdLevels[0] {
		return -1, rowV, rowV
	}
	weakCol = int(splitmix(m.seed^0x11c0ffee^key(bank, row, 0)) % uint64(m.geom.ColsPerRow))
	// rowV is above the lowest level here, so the other lines sit exactly
	// one level below it.
	for i := 1; i < len(rcdLevels); i++ {
		if rcdLevels[i] == rowV {
			return weakCol, rowV, rcdLevels[i-1]
		}
	}
	return weakCol, rowV, rowV
}

// Strong reports whether the row is reliable at the strong threshold.
func (m *Model) Strong(bank, row int) bool {
	return m.MinTRCDRow(bank, row) <= StrongThreshold
}

// MaxMinTRCD reports the largest minimum-reliable tRCD any line in the
// module can have (the top of the quantization grid). Reads issued at or
// above it are reliable everywhere — the chip model's fast path for
// nominal-timing reads, which skips the spatial noise-field evaluation on
// the hot path.
func (m *Model) MaxMinTRCD() clock.PS { return rcdLevels[len(rcdLevels)-1] }

// ReadReliable reports whether a read of (bank,row,col) issued with the
// given effective tRCD returns correct data.
func (m *Model) ReadReliable(bank, row, col int, rcd clock.PS) bool {
	return rcd >= m.MinTRCDLine(bank, row, col)
}

// CorruptionMask returns a deterministic non-zero XOR mask applied to the
// first data word of an unreliable read, so profiling detects the failure.
func (m *Model) CorruptionMask(bank, row, col int) uint64 {
	h := splitmix(m.seed ^ 0xdeadbeef ^ key(bank, row, col))
	if h == 0 {
		h = 1
	}
	return h
}

// Clonable reports whether RowClone from src to dst within bank succeeds
// reliably. Cross-subarray pairs never succeed (FPM RowClone is an
// intra-subarray operation); intra-subarray pairs succeed per a stable
// per-pair draw.
func (m *Model) Clonable(bank, src, dst int) bool {
	if src == dst {
		return false
	}
	if m.geom.Subarray(src) != m.geom.Subarray(dst) {
		return false
	}
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	h := splitmix(m.seed ^ 0xc10e ^ key(bank, lo, hi))
	return h%256 < m.clonableP
}

// TripleOK reports whether a simultaneous many-row activation of
// (r1, r2, r1|r2) produces a reliable majority result. Like RowClone
// clonability it is a stable per-triple property; the success rate is lower
// (~0.7) because three rows must share charge cleanly (ComputeDRAM reports
// substantial inter-chip variation for these operations).
func (m *Model) TripleOK(bank, r1, r2 int) bool {
	lo, hi := r1, r2
	if lo > hi {
		lo, hi = hi, lo
	}
	h := splitmix(m.seed ^ 0x3b173 ^ key(bank, lo, hi))
	return h%256 < 179 // ~0.7 * 256
}

// StrongFraction measures the fraction of strong rows over nBanks banks,
// used by tests to pin the calibration.
func (m *Model) StrongFraction(nBanks int) float64 {
	if nBanks > m.geom.Banks {
		nBanks = m.geom.Banks
	}
	strong, total := 0, 0
	for b := 0; b < nBanks; b++ {
		for r := 0; r < m.geom.RowsPerBank; r++ {
			total++
			if m.Strong(b, r) {
				strong++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(strong) / float64(total)
}

// noise returns a smooth deterministic field in [0,1) over (bank,row).
// Lattice points are hashed every cellRows rows; values between lattice
// points are linearly interpolated, which produces the contiguous weak
// patches visible in Figure 12.
func (m *Model) noise(bank, row int) float64 {
	const cellRows = 96 // patch granularity in rows
	x0 := row / cellRows
	frac := float64(row%cellRows) / cellRows
	v0 := m.lattice(bank, x0)
	v1 := m.lattice(bank, x0+1)
	v := v0 + (v1-v0)*frac
	// Sharpen: squash toward the extremes a little so patches have crisp
	// boundaries after thresholding.
	return clamp01(v*1.15 - 0.075)
}

func (m *Model) lattice(bank, x int) float64 {
	h := splitmix(m.seed ^ key(bank, x, 0x5eed))
	return float64(h>>11) / float64(1<<53)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 0.999999
	}
	return v
}

func key(a, b, c int) uint64 {
	return uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9 ^ uint64(c)*0x94d049bb133111eb
}

// splitmix is SplitMix64: a high-quality, allocation-free stateless hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func errf(format string, args ...any) error {
	return fmt.Errorf("variation: "+format, args...)
}
