package variation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"easydram/internal/clock"
)

func testGeom() Geometry {
	return Geometry{Banks: 16, RowsPerBank: 8192, ColsPerRow: 128, SubarrayRows: 512}
}

func newTestModel(t *testing.T, seed uint64, opts ...Option) *Model {
	t.Helper()
	m, err := NewModel(testGeom(), seed, opts...)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Banks: 0, RowsPerBank: 1, ColsPerRow: 1, SubarrayRows: 1},
		{Banks: 1, RowsPerBank: 0, ColsPerRow: 1, SubarrayRows: 1},
		{Banks: 1, RowsPerBank: 1, ColsPerRow: 0, SubarrayRows: 1},
		{Banks: 1, RowsPerBank: 1, ColsPerRow: 1, SubarrayRows: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := testGeom().Validate(); err != nil {
		t.Fatalf("good geometry rejected: %v", err)
	}
}

// TestStrongFractionCalibration pins the paper's measured statistic: 84.5%
// of rows are reliable at 9.0 ns (§8.1). The model must land near it.
func TestStrongFractionCalibration(t *testing.T) {
	m := newTestModel(t, 1)
	got := m.StrongFraction(16)
	if got < 0.80 || got > 0.90 {
		t.Fatalf("strong fraction = %.3f, want ~0.845", got)
	}
}

func TestMinTRCDQuantized(t *testing.T) {
	m := newTestModel(t, 7)
	valid := map[clock.PS]bool{9000: true, 9500: true, 10000: true, 10500: true}
	for r := 0; r < 2048; r++ {
		if v := m.MinTRCDRow(3, r); !valid[v] {
			t.Fatalf("row %d has off-grid tRCD %v", r, v)
		}
	}
}

// TestWeakRowsCluster verifies spatial clustering: a weak row's neighbour
// is far more likely to be weak than the base rate would suggest.
func TestWeakRowsCluster(t *testing.T) {
	m := newTestModel(t, 1)
	weak, weakNeighbour := 0, 0
	for b := 0; b < 16; b++ {
		for r := 0; r < 8191; r++ {
			if !m.Strong(b, r) {
				weak++
				if !m.Strong(b, r+1) {
					weakNeighbour++
				}
			}
		}
	}
	if weak == 0 {
		t.Fatalf("no weak rows at all")
	}
	cond := float64(weakNeighbour) / float64(weak)
	if cond < 0.8 {
		t.Fatalf("P(weak | neighbour weak) = %.2f, expected strong clustering", cond)
	}
}

// Property: the row's minimum tRCD equals the maximum over its lines
// (the weakest line defines the row, §8.2).
func TestRowIsMaxOfLines(t *testing.T) {
	m := newTestModel(t, 3)
	f := func(bankRaw, rowRaw uint16) bool {
		bank := int(bankRaw) % 16
		row := int(rowRaw) % 8192
		rowV := m.MinTRCDRow(bank, row)
		var maxLine clock.PS
		for col := 0; col < 128; col++ {
			if v := m.MinTRCDLine(bank, row, col); v > maxLine {
				maxLine = v
			}
		}
		return maxLine == rowV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the model is a pure function of its inputs.
func TestDeterminism(t *testing.T) {
	m1 := newTestModel(t, 42)
	m2 := newTestModel(t, 42)
	f := func(b, r, c uint16) bool {
		bank, row, col := int(b)%16, int(r)%8192, int(c)%128
		return m1.MinTRCDLine(bank, row, col) == m2.MinTRCDLine(bank, row, col) &&
			m1.Clonable(bank, row, (row+1)%8192) == m2.Clonable(bank, row, (row+1)%8192)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedChangesLayout(t *testing.T) {
	m1 := newTestModel(t, 1)
	m2 := newTestModel(t, 2)
	diff := 0
	for r := 0; r < 8192; r++ {
		if m1.Strong(0, r) != m2.Strong(0, r) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("different seeds produced identical weak maps")
	}
}

// Property: RowClone never crosses subarrays, and self-clones fail.
func TestClonableConstraints(t *testing.T) {
	m := newTestModel(t, 5)
	f := func(b, r1raw, r2raw uint16) bool {
		bank := int(b) % 16
		r1, r2 := int(r1raw)%8192, int(r2raw)%8192
		ok := m.Clonable(bank, r1, r2)
		if r1 == r2 && ok {
			return false
		}
		if r1/512 != r2/512 && ok {
			return false // cross-subarray clones must fail
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClonableSymmetricFraction(t *testing.T) {
	m := newTestModel(t, 1)
	ok, total := 0, 0
	for r := 0; r < 511; r++ {
		total++
		if m.Clonable(0, r, r+1) {
			ok++
		}
		// Symmetric: order must not matter.
		if m.Clonable(0, r, r+1) != m.Clonable(0, r+1, r) {
			t.Fatalf("clonability not symmetric for rows %d,%d", r, r+1)
		}
	}
	frac := float64(ok) / float64(total)
	if frac < 0.75 || frac > 0.95 {
		t.Fatalf("clonable fraction = %.2f, want ~0.85", frac)
	}
}

func TestWithClonableFraction(t *testing.T) {
	m := newTestModel(t, 1, WithClonableFraction(0))
	for r := 0; r < 511; r++ {
		if m.Clonable(0, r, r+1) {
			t.Fatalf("clonable fraction 0 must disable all clones")
		}
	}
	m = newTestModel(t, 1, WithClonableFraction(1))
	bad := 0
	for r := 0; r < 511; r++ {
		if !m.Clonable(0, r, r+1) {
			bad++
		}
	}
	// 256/256ths: every intra-subarray pair succeeds.
	if bad != 0 {
		t.Fatalf("clonable fraction 1 left %d failing pairs", bad)
	}
}

func TestReadReliable(t *testing.T) {
	m := newTestModel(t, 1)
	// Find a weak line and assert its threshold behaviour.
	for b := 0; b < 16; b++ {
		for r := 0; r < 8192; r++ {
			if m.Strong(b, r) {
				continue
			}
			rowV := m.MinTRCDRow(b, r)
			for c := 0; c < 128; c++ {
				if m.MinTRCDLine(b, r, c) == rowV {
					if m.ReadReliable(b, r, c, rowV-500) {
						t.Fatalf("read below the line's min tRCD must be unreliable")
					}
					if !m.ReadReliable(b, r, c, rowV) {
						t.Fatalf("read at the line's min tRCD must be reliable")
					}
					return
				}
			}
		}
	}
	t.Fatalf("no weak line found")
}

func TestCorruptionMaskNonZero(t *testing.T) {
	m := newTestModel(t, 1)
	for i := 0; i < 64; i++ {
		if m.CorruptionMask(0, i, i%128) == 0 {
			t.Fatalf("corruption mask must be non-zero")
		}
	}
}

func TestSubarrayIndex(t *testing.T) {
	g := testGeom()
	if g.Subarray(0) != 0 || g.Subarray(511) != 0 || g.Subarray(512) != 1 {
		t.Fatalf("subarray math wrong")
	}
}

// TestLineThresholdsMatchMinTRCDLine is the oracle for the per-row form the
// chip model memoizes: on seeded (bank, row) samples, every column's
// MinTRCDLine must be weak at weakCol and other elsewhere. The samples must
// cover strong rows and all three weak levels.
func TestLineThresholdsMatchMinTRCDLine(t *testing.T) {
	g := testGeom()
	for _, seed := range []uint64{1, 7, 42} {
		m := newTestModel(t, seed)
		rng := rand.New(rand.NewSource(int64(seed)))
		rowsAt := map[clock.PS]int{}
		for i := 0; i < 3000; i++ {
			bank, row := rng.Intn(g.Banks), rng.Intn(g.RowsPerBank)
			weakCol, weak, other := m.LineThresholds(bank, row)
			rowV := m.MinTRCDRow(bank, row)
			rowsAt[rowV]++
			if weak != rowV {
				t.Fatalf("seed %d (%d,%d): weak = %v, row value %v", seed, bank, row, weak, rowV)
			}
			if m.Strong(bank, row) != (weakCol == -1) {
				t.Fatalf("seed %d (%d,%d): weakCol %d for a row at %v", seed, bank, row, weakCol, rowV)
			}
			for col := 0; col < g.ColsPerRow; col++ {
				want := m.MinTRCDLine(bank, row, col)
				got := other
				if col == weakCol {
					got = weak
				}
				if got != want {
					t.Fatalf("seed %d (%d,%d,%d): LineThresholds gives %v, MinTRCDLine %v", seed, bank, row, col, got, want)
				}
			}
		}
		for _, lv := range rcdLevels {
			if rowsAt[lv] == 0 {
				t.Fatalf("seed %d: no sampled row at level %v (coverage %v)", seed, lv, rowsAt)
			}
		}
	}
}
