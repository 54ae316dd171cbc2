package dram

import (
	"bytes"
	"fmt"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/snapshot"
)

// The chip keeps the open row's data slice per bank (bankState.openData).
// These tests change a row's contents by every path that does not go
// through RD/WR and check that a RD of the open row still returns exactly
// what PeekLine reads from the store.

// requireOpenRowMatchesStore reads every column of bank's open row at time
// t and compares each line with PeekLine.
func requireOpenRowMatchesStore(t *testing.T, c *Chip, bank int, at clock.PS, what string) {
	t.Helper()
	row := c.OpenRow(bank)
	if row < 0 {
		t.Fatalf("%s: bank %d is precharged", what, bank)
	}
	got := make([]byte, LineBytes)
	want := make([]byte, LineBytes)
	for col := 0; col < c.Config().ColsPerRow; col++ {
		if _, err := c.Read(bank, col, at, got); err != nil {
			t.Fatalf("%s: RD col %d: %v", what, col, err)
		}
		c.PeekLine(Addr{Bank: bank, Row: row, Col: col}, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: RD of row %d col %d = %x, store holds %x", what, row, col, got[:8], want[:8])
		}
		at += c.Timing().TCCDL
	}
}

// cloneInto opens dst and reads it (so the bank holds dst's data slice),
// then runs ACT(src), early PRE, early ACT(dst) and returns the time after
// the clone's activation.
func cloneInto(t *testing.T, c *Chip, bank, src, dst int) (clock.PS, bool) {
	t.Helper()
	p := c.Timing()
	var at clock.PS = 1000 * clock.Nanosecond
	c.Activate(bank, dst, at, 0)
	at += p.TRCD
	if _, err := c.Read(bank, 0, at, make([]byte, LineBytes)); err != nil {
		t.Fatal(err)
	}
	at += p.TRAS
	c.Precharge(bank, at)
	at += p.TRP
	c.Activate(bank, src, at, 0)
	c.Precharge(bank, at+3*clock.Nanosecond)
	cloned, ok := c.Activate(bank, dst, at+6*clock.Nanosecond, 0)
	if !cloned {
		t.Fatalf("ACT-PRE-ACT did not attempt a clone")
	}
	return at + 6*clock.Nanosecond + p.TRCD, ok
}

func TestOpenRowReadAfterRowClone(t *testing.T) {
	cfg := testConfig()
	cfg.ClonableFraction = 1
	c := newTestChip(t, cfg)
	src := bytes.Repeat([]byte{0xC3}, LineBytes)
	for col := 0; col < cfg.ColsPerRow; col++ {
		src[0] = byte(col)
		c.PokeLine(Addr{Bank: 1, Row: 10, Col: col}, src)
	}
	at, ok := cloneInto(t, c, 1, 10, 11)
	if !ok {
		t.Fatalf("clone failed with every pair clonable")
	}
	requireOpenRowMatchesStore(t, c, 1, at, "after RowClone")
	got := make([]byte, LineBytes)
	c.PeekLine(Addr{Bank: 1, Row: 11, Col: 5}, got)
	if got[0] != 5 || got[1] != 0xC3 {
		t.Fatalf("clone destination holds %x, want the source line", got[:8])
	}
}

func TestOpenRowReadAfterFailedCloneScramble(t *testing.T) {
	cfg := testConfig()
	cfg.ClonableFraction = 0.001 // rounds to zero pairs: every clone fails
	c := newTestChip(t, cfg)
	pattern := bytes.Repeat([]byte{0x77}, LineBytes)
	c.PokeLine(Addr{Bank: 0, Row: 20}, pattern)
	c.PokeLine(Addr{Bank: 0, Row: 21}, pattern)
	at, ok := cloneInto(t, c, 0, 20, 21)
	if ok {
		t.Fatalf("clone succeeded with no clonable pair")
	}
	requireOpenRowMatchesStore(t, c, 0, at, "after a failed clone")
	got := make([]byte, LineBytes)
	c.PeekLine(Addr{Bank: 0, Row: 21}, got)
	if bytes.Equal(got, pattern) {
		t.Fatalf("failed clone left the destination intact")
	}
}

func TestOpenRowReadAfterPokeLine(t *testing.T) {
	c := newTestChip(t, testConfig())
	p := c.Timing()
	c.Activate(2, 30, 0, 0)
	requireOpenRowMatchesStore(t, c, 2, p.TRCD, "before PokeLine")
	poked := bytes.Repeat([]byte{0xE1}, LineBytes)
	c.PokeLine(Addr{Bank: 2, Row: 30, Col: 9}, poked)
	requireOpenRowMatchesStore(t, c, 2, 2*p.TRC, "after PokeLine")
	got := make([]byte, LineBytes)
	if _, err := c.Read(2, 9, 4*p.TRC, got); err != nil || !bytes.Equal(got, poked) {
		t.Fatalf("RD after PokeLine = %x (err %v), want %x", got[:8], err, poked[:8])
	}
}

// TestOpenRowFollowsActivation reopens the bank on another row, through
// PRE and through REF, and checks the reads follow the new row.
func TestOpenRowFollowsActivation(t *testing.T) {
	c := newTestChip(t, testConfig())
	p := c.Timing()
	for row, fill := range map[int]byte{30: 0x1E, 31: 0x1F, 32: 0x20} {
		c.PokeLine(Addr{Bank: 2, Row: row, Col: 4}, bytes.Repeat([]byte{fill}, LineBytes))
	}
	at := clock.PS(0)
	c.Activate(2, 30, at, 0)
	requireOpenRowMatchesStore(t, c, 2, at+p.TRCD, "row 30")
	at += 100 * p.TRC
	c.Precharge(2, at)
	at += p.TRP
	c.Activate(2, 31, at, 0)
	requireOpenRowMatchesStore(t, c, 2, at+p.TRCD, "row 31 after PRE")
	at += 100 * p.TRC
	c.Refresh(at)
	at += p.TRFC
	c.Activate(2, 32, at, 0)
	requireOpenRowMatchesStore(t, c, 2, at+p.TRCD, "row 32 after REF")
}

// TestOpenRowReactivation re-opens a row whose data slice the bank still
// holds: the same row after PRE, after REF, and after another row was open
// in between. Each time the row's contents change while it is closed
// (PokeLine) or through a WR before it closes, and the reads after the
// re-activation must follow the store.
func TestOpenRowReactivation(t *testing.T) {
	c := newTestChip(t, testConfig())
	p := c.Timing()
	const bank = 2
	fill := func(row, col int, v byte) []byte {
		line := bytes.Repeat([]byte{v}, LineBytes)
		c.PokeLine(Addr{Bank: bank, Row: row, Col: col}, line)
		return line
	}
	at := clock.PS(0)
	open := func(row int, what string) {
		t.Helper()
		c.Activate(bank, row, at, 0)
		requireOpenRowMatchesStore(t, c, bank, at+p.TRCD, what)
		at += 200 * p.TRC
	}
	closeBank := func() {
		c.Precharge(bank, at)
		at += p.TRP
	}

	fill(30, 4, 0x1E)
	fill(31, 4, 0x1F)
	open(30, "row 30")
	written := bytes.Repeat([]byte{0xA5}, LineBytes)
	if err := c.Write(bank, 7, at, written); err != nil {
		t.Fatal(err)
	}
	at += p.TRC
	closeBank()
	fill(30, 4, 0x2E)
	open(30, "row 30 again after PRE")
	got := make([]byte, LineBytes)
	if _, err := c.Read(bank, 7, at, got); err != nil || !bytes.Equal(got, written) {
		t.Fatalf("RD of the line written before PRE = %x (err %v), want %x", got[:8], err, written[:8])
	}
	at += p.TRC

	closeBank()
	c.Refresh(at)
	at += p.TRFC
	fill(30, 5, 0x3E)
	open(30, "row 30 again after REF")

	closeBank()
	open(31, "row 31 in between")
	closeBank()
	want := fill(30, 6, 0x4E)
	fill(31, 6, 0x4F)
	open(30, "row 30 again after row 31")
	if _, err := c.Read(bank, 6, at, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("RD after row 31 = %x (err %v), want row 30's %x", got[:8], err, want[:8])
	}
}

func TestOpenRowReadAfterDisturbFlip(t *testing.T) {
	cfg := faultedConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bank, victim = 1, 11
	p := c.Timing()
	c.Activate(bank, victim, 0, 0)
	requireOpenRowMatchesStore(t, c, bank, p.TRCD, "victim before hammering")
	c.Precharge(bank, p.TRAS+p.TRCD*2)
	end := hammer(c, bank, victim, 20, p.TRC*4)
	if c.Stats().DisturbFlips == 0 {
		t.Fatalf("hammering flipped nothing")
	}
	c.Activate(bank, victim, end, 0)
	requireOpenRowMatchesStore(t, c, bank, end+p.TRCD, "victim after a disturb flip")
}

func TestOpenRowReadAfterStateRoundTrip(t *testing.T) {
	cfg := testConfig()
	a := newTestChip(t, cfg)
	p := a.Timing()
	a.Activate(3, 40, 0, 0)
	line := bytes.Repeat([]byte{0x3C}, LineBytes)
	if err := a.Write(3, 6, p.TRCD, line); err != nil {
		t.Fatal(err)
	}
	requireOpenRowMatchesStore(t, a, 3, 2*p.TRC, "before SaveState")
	var e snapshot.Enc
	a.SaveState(&e)

	// b opens and reads another row of the same bank first, so its bank
	// holds that row's data slice when LoadState reopens row 40.
	b := newTestChip(t, cfg)
	b.Activate(3, 41, 0, 0)
	requireOpenRowMatchesStore(t, b, 3, p.TRCD, "b before LoadState")
	d := snapshot.NewDec(e.Payload())
	b.LoadState(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if b.OpenRow(3) != 40 {
		t.Fatalf("restored open row %d, want 40", b.OpenRow(3))
	}
	requireOpenRowMatchesStore(t, b, 3, 4*p.TRC, "after LoadState")
	got := make([]byte, LineBytes)
	if _, err := b.Read(3, 6, 8*p.TRC, got); err != nil || !bytes.Equal(got, line) {
		t.Fatalf("RD after LoadState = %x (err %v), want %x", got[:8], err, line[:8])
	}
}

// TestOutOfRangePanicMessages pins the panic text of every bounds check
// now that the messages are formatted out of line.
func TestOutOfRangePanicMessages(t *testing.T) {
	c := newTestChip(t, testConfig())
	m, err := NewModule(testConfig(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineBytes)
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"Activate bank", func() { c.Activate(99, 0, 0, 0) }, "dram: bank 99 out of range [0,16)"},
		{"Activate negative bank", func() { c.Activate(-1, 0, 0, 0) }, "dram: bank -1 out of range [0,16)"},
		{"Activate row", func() { c.Activate(0, 4096, 0, 0) }, "dram: row 4096 out of range [0,4096)"},
		{"Precharge", func() { c.Precharge(16, 0) }, "dram: bank 16 out of range [0,16)"},
		{"Read", func() { c.Read(16, 0, 0, buf) }, "dram: bank 16 out of range [0,16)"},
		{"Write", func() { c.Write(16, 0, 0, buf) }, "dram: bank 16 out of range [0,16)"},
		{"OpenRow", func() { c.OpenRow(-3) }, "dram: bank -3 out of range [0,16)"},
		{"PeekLine row", func() { c.PeekLine(Addr{Bank: 0, Row: -1}, buf) }, "dram: row -1 out of range [0,4096)"},
		{"PokeLine bank", func() { c.PokeLine(Addr{Bank: 20, Row: 0}, buf) }, "dram: bank 20 out of range [0,16)"},
		{"Module bank", func() { m.Activate(16, 0, 0, 0) }, "dram: global bank 16 out of range for 1 ranks x 16 banks"},
		{"Module negative bank", func() { m.OpenRow(-1) }, "dram: global bank -1 out of range for 1 ranks x 16 banks"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}
