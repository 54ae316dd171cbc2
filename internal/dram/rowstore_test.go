package dram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/snapshot"
)

// The row store (lazy per-bank tables over arena-backed row slices) and
// the per-bank open-row memo are checked here against a map of line
// contents: a data-tracking chip runs a decoded stream of ACT, PRE, RD,
// WR, REF, PokeLine, RowClone and SaveState->LoadState operations, and
// every RD, every checkpoint and the final store must agree with the map.

// rowStoreConfig is a small ideal chip (every read reliable, every clone
// succeeds) with 512-byte rows, so one arena block holds 64 of them.
func rowStoreConfig() Config {
	cfg := DefaultConfig()
	cfg.RowsPerBank = 1024
	cfg.ColsPerRow = 8
	cfg.Ideal = true
	return cfg
}

const (
	rowStoreBanks  = 4
	rowStoreOpSize = 4
)

type rowKey struct{ bank, row int }

type lineKey struct{ bank, row, col int }

// rowStoreRef is the reference: line contents by address (absent lines
// read as zero), the rows the chip has allocated, and each bank's open row.
type rowStoreRef struct {
	lines   map[lineKey][LineBytes]byte
	touched map[rowKey]bool
	open    [rowStoreBanks]int
}

// runRowStore decodes data four bytes per operation (kind, bank, row,
// value) and diffs the chip against the reference. It returns the number
// of rows touched and of checkpoint round trips taken.
func runRowStore(t *testing.T, data []byte) (rows, saves int) {
	t.Helper()
	cfg := rowStoreConfig()
	c := newTestChip(t, cfg)
	p := c.Timing()
	ref := rowStoreRef{lines: map[lineKey][LineBytes]byte{}, touched: map[rowKey]bool{}}
	for i := range ref.open {
		ref.open[i] = -1
	}
	cols := cfg.ColsPerRow
	// Every operation starts a row cycle after the previous one, so a PRE
	// is never early enough to hold the sense amps: only the RowClone
	// operation's own ACT-PRE-ACT copies a row.
	at := clock.PS(0)
	got := make([]byte, LineBytes)
	for i := 0; i+rowStoreOpSize <= len(data); i += rowStoreOpSize {
		kind, bank := data[i]%16, int(data[i+1])%rowStoreBanks
		row, val := int(data[i+2])*3%cfg.RowsPerBank, data[i+3]
		col := int(val) % cols
		var line [LineBytes]byte
		for j := range line {
			line[j] = val + byte(j*7)
		}
		binary.LittleEndian.PutUint32(line[:], uint32(i))
		at += p.TRC
		switch {
		case kind < 3: // ACT
			c.Activate(bank, row, at, 0)
			ref.open[bank] = row
		case kind < 5: // PRE
			c.Precharge(bank, at)
			ref.open[bank] = -1
		case kind < 9: // RD
			_, err := c.Read(bank, col, at, got)
			open := ref.open[bank]
			if open < 0 {
				if err == nil {
					t.Fatalf("op %d: RD on precharged bank %d succeeded", i/rowStoreOpSize, bank)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: RD bank %d: %v", i/rowStoreOpSize, bank, err)
			}
			ref.touched[rowKey{bank, open}] = true
			if want := ref.lines[lineKey{bank, open, col}]; !bytes.Equal(got, want[:]) {
				t.Fatalf("op %d: RD (%d,%d,%d) = %x, reference %x", i/rowStoreOpSize, bank, open, col, got[:8], want[:8])
			}
		case kind < 12: // WR
			err := c.Write(bank, col, at, line[:])
			open := ref.open[bank]
			if open < 0 {
				if err == nil {
					t.Fatalf("op %d: WR on precharged bank %d succeeded", i/rowStoreOpSize, bank)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: WR bank %d: %v", i/rowStoreOpSize, bank, err)
			}
			ref.touched[rowKey{bank, open}] = true
			ref.lines[lineKey{bank, open, col}] = line
		case kind == 12: // REF
			c.Refresh(at)
			at += p.TRFC
			ref.open = [rowStoreBanks]int{-1, -1, -1, -1}
		case kind == 13:
			c.PokeLine(Addr{Bank: bank, Row: row, Col: col}, line[:])
			ref.touched[rowKey{bank, row}] = true
			ref.lines[lineKey{bank, row, col}] = line
		case kind == 14: // RowClone row -> dst, leaving dst open
			dst := (row + 1 + int(val)%5) % cfg.RowsPerBank
			c.Activate(bank, row, at, 0)
			c.Precharge(bank, at+3*clock.Nanosecond)
			if cloned, ok := c.Activate(bank, dst, at+6*clock.Nanosecond, 0); !cloned || !ok {
				t.Fatalf("op %d: RowClone (%d,%d)->%d: cloned %v ok %v", i/rowStoreOpSize, bank, row, dst, cloned, ok)
			}
			for cl := 0; cl < cols; cl++ {
				ref.lines[lineKey{bank, dst, cl}] = ref.lines[lineKey{bank, row, cl}]
			}
			ref.touched[rowKey{bank, row}] = true
			ref.touched[rowKey{bank, dst}] = true
			ref.open[bank] = dst
		default: // checkpoint round trip onto a fresh chip
			saves++
			var e snapshot.Enc
			c.SaveState(&e)
			requireSavedRows(t, e.Payload(), &ref, cols, i/rowStoreOpSize)
			c = newTestChip(t, cfg)
			d := snapshot.NewDec(e.Payload())
			c.LoadState(d)
			if err := d.Err(); err != nil {
				t.Fatalf("op %d: LoadState: %v", i/rowStoreOpSize, err)
			}
		}
	}
	for k := range ref.touched {
		for cl := 0; cl < cols; cl++ {
			c.PeekLine(Addr{Bank: k.bank, Row: k.row, Col: cl}, got)
			if want := ref.lines[lineKey{k.bank, k.row, cl}]; !bytes.Equal(got, want[:]) {
				t.Fatalf("end: store (%d,%d,%d) = %x, reference %x", k.bank, k.row, cl, got[:8], want[:8])
			}
		}
	}
	return len(ref.touched), saves
}

// requireSavedRows decodes a chip checkpoint up to its row store and
// checks that it lists exactly the touched rows, each holding the
// reference's contents.
func requireSavedRows(t *testing.T, payload []byte, ref *rowStoreRef, cols, op int) {
	t.Helper()
	d := snapshot.NewDec(payload)
	for range d.Int() { // bank state
		d.Int()
		d.Int()
		d.I64()
		d.I64()
		d.Bool()
		d.I64()
	}
	for range 15 { // Stats counters
		d.I64()
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		t.Fatalf("op %d: decoding the checkpoint: %v", op, err)
	}
	if n != len(ref.touched) {
		t.Fatalf("op %d: checkpoint holds %d rows, %d touched", op, n, len(ref.touched))
	}
	for range n {
		bank, row := d.Int(), d.Int()
		data := d.BytesView()
		if err := d.Err(); err != nil {
			t.Fatalf("op %d: decoding the checkpoint: %v", op, err)
		}
		if !ref.touched[rowKey{bank, row}] {
			t.Fatalf("op %d: checkpoint holds untouched row (%d,%d)", op, bank, row)
		}
		for cl := 0; cl < cols; cl++ {
			if want := ref.lines[lineKey{bank, row, cl}]; !bytes.Equal(data[cl*LineBytes:(cl+1)*LineBytes], want[:]) {
				t.Fatalf("op %d: checkpoint row (%d,%d) col %d = %x, reference %x", op, bank, row, cl, data[cl*LineBytes:cl*LineBytes+8], want[:8])
			}
		}
	}
}

// TestChipRowStoreOracle runs seeded random streams long enough to fill
// several arena blocks, with checkpoint round trips in between.
func TestChipRowStoreOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		data := make([]byte, rowStoreOpSize*1200)
		rand.New(rand.NewSource(seed)).Read(data)
		rows, saves := runRowStore(t, data)
		if rows <= 2*rowArenaRows || saves == 0 {
			t.Fatalf("seed %d touched %d rows with %d checkpoints; want more than %d rows and a checkpoint", seed, rows, saves, 2*rowArenaRows)
		}
	}
}

// FuzzChipRowStore diffs the chip's row store against the map reference
// on fuzzer-chosen operation streams.
func FuzzChipRowStore(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 9, 1, 10, 3, 5, 1, 10, 3, 3, 1, 0, 0, 0, 1, 10, 0, 6, 1, 10, 3})
	f.Add([]byte{14, 0, 40, 2, 7, 0, 0, 1, 15, 0, 0, 0, 6, 0, 0, 1, 12, 0, 0, 0, 0, 0, 41, 0, 6, 0, 0, 1})
	f.Add([]byte{13, 2, 200, 9, 0, 2, 200, 0, 15, 0, 0, 0, 8, 2, 0, 9, 4, 2, 0, 0, 0, 2, 200, 0, 8, 2, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > rowStoreOpSize*1024 {
			data = data[:rowStoreOpSize*1024]
		}
		runRowStore(t, data)
	})
}
