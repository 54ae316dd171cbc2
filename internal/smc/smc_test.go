package smc

import (
	"testing"
	"testing/quick"

	"easydram/internal/dram"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

func TestRowBankColRoundTrip(t *testing.T) {
	m, err := NewRowBankCol(16, 128)
	if err != nil {
		t.Fatalf("NewRowBankCol: %v", err)
	}
	f := func(raw uint64) bool {
		pa := (raw % (1 << 38)) &^ 63
		return m.Unmap(m.Map(pa)) == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowBankColLayout(t *testing.T) {
	m, err := NewRowBankCol(16, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive 8 KiB blocks rotate across banks; a row-aligned block is
	// exactly one row.
	a0 := m.Map(0)
	a1 := m.Map(8192)
	a16 := m.Map(16 * 8192)
	if a0.Bank != 0 || a0.Row != 0 || a0.Col != 0 {
		t.Fatalf("block 0 = %v", a0)
	}
	if a1.Bank != 1 || a1.Row != 0 {
		t.Fatalf("block 1 = %v", a1)
	}
	if a16.Bank != 0 || a16.Row != 1 {
		t.Fatalf("block 16 = %v", a16)
	}
	// Lines within a block stay in one row.
	aMid := m.Map(4096)
	if aMid.Bank != 0 || aMid.Row != 0 || aMid.Col != 64 {
		t.Fatalf("mid-block line = %v", aMid)
	}
	if m.RowBytes() != 8192 || m.Banks() != 16 {
		t.Fatalf("geometry accessors wrong")
	}
}

func TestMapperValidation(t *testing.T) {
	if _, err := NewRowBankCol(3, 128); err == nil {
		t.Fatalf("non-power-of-two banks must fail")
	}
	if _, err := NewRowBankCol(16, 100); err == nil {
		t.Fatalf("non-power-of-two columns must fail")
	}
}

// entries builds a scheduler table from requests, decoding coordinates and
// assigning arrival Seq in slice order (the controller's ingest path does
// the same).
func entries(m Mapper, reqs ...mem.Request) []Entry {
	out := make([]Entry, len(reqs))
	for i, r := range reqs {
		out[i] = Entry{ID: r.ID, Kind: r.Kind, Addr: m.Map(r.Addr), Seq: uint64(i)}
		switch r.Kind {
		case mem.RowClone, mem.Bitwise:
			out[i].Src = m.Map(r.Src)
		}
	}
	return out
}

// openRowsWith returns a 16-bank open-row vector with one bank's row set.
func openRowsWith(bank, row int) []int {
	rows := make([]int, 16)
	for i := range rows {
		rows[i] = -1
	}
	rows[bank] = row
	return rows
}

func TestFRFCFSPicksRowHitRead(t *testing.T) {
	m, _ := NewRowBankCol(16, 128)
	openRows := openRowsWith(0, 5)
	rowHitAddr := m.Unmap(dram.Addr{Bank: 0, Row: 5, Col: 3})
	table := entries(m,
		mem.Request{ID: 1, Kind: mem.Writeback, Addr: m.Unmap(dram.Addr{Bank: 0, Row: 5, Col: 9})},
		mem.Request{ID: 2, Kind: mem.Read, Addr: m.Unmap(dram.Addr{Bank: 2, Row: 7})},
		mem.Request{ID: 3, Kind: mem.Read, Addr: rowHitAddr},
	)
	if got := (FRFCFS{}).Pick(table, openRows); got != 2 {
		t.Fatalf("FR-FCFS picked index %d, want 2 (row-hit read)", got)
	}
	// Without a row-hit read, a row-hit write wins over an older read miss.
	table = table[:2]
	if got := (FRFCFS{}).Pick(table, openRows); got != 0 {
		t.Fatalf("FR-FCFS picked index %d, want 0 (row-hit write)", got)
	}
	// With neither, the oldest read wins over an older writeback.
	table = entries(m,
		mem.Request{ID: 1, Kind: mem.Writeback, Addr: m.Unmap(dram.Addr{Bank: 3, Row: 1})},
		mem.Request{ID: 2, Kind: mem.Read, Addr: m.Unmap(dram.Addr{Bank: 2, Row: 7})},
	)
	if got := (FRFCFS{}).Pick(table, openRows); got != 1 {
		t.Fatalf("FR-FCFS picked index %d, want 1 (read priority)", got)
	}
}

func TestFRFCFSUsesSeqNotIndexOrder(t *testing.T) {
	// The table is unordered (swap-remove): every priority class must be
	// resolved by Seq, not by slice position. Build tables whose oldest
	// entry sits at the *end*.
	m, _ := NewRowBankCol(16, 128)
	openRows := openRowsWith(0, 5)
	hit := func(id uint64, col int) mem.Request {
		return mem.Request{ID: id, Kind: mem.Read, Addr: m.Unmap(dram.Addr{Bank: 0, Row: 5, Col: col})}
	}
	table := entries(m, hit(1, 0), hit(2, 1), hit(3, 2))
	// Scramble: seq order is 2 (oldest), 0, 1.
	table[0].Seq, table[1].Seq, table[2].Seq = 1, 2, 0
	if got := (FRFCFS{}).Pick(table, openRows); got != 2 {
		t.Fatalf("FR-FCFS picked index %d, want 2 (lowest Seq among row-hit reads)", got)
	}
}

func TestFRFCFSOldestFallbackCoversTechniques(t *testing.T) {
	// A table holding only technique requests plus non-read misses must fall
	// back to the oldest request by arrival, wherever it sits in the slice.
	m, _ := NewRowBankCol(16, 128)
	openRows := openRowsWith(0, 5) // no entry hits this row
	table := entries(m,
		mem.Request{ID: 1, Kind: mem.RowClone, Addr: m.Unmap(dram.Addr{Bank: 1, Row: 3}), Src: m.Unmap(dram.Addr{Bank: 1, Row: 2})},
		mem.Request{ID: 2, Kind: mem.Writeback, Addr: m.Unmap(dram.Addr{Bank: 2, Row: 7})},
		mem.Request{ID: 3, Kind: mem.Profile, Addr: m.Unmap(dram.Addr{Bank: 4, Row: 9})},
	)
	// Swap-remove scrambled the slice: the oldest arrival is the profile.
	table[0].Seq, table[1].Seq, table[2].Seq = 7, 5, 1
	if got := (FRFCFS{}).Pick(table, openRows); got != 2 {
		t.Fatalf("FR-FCFS picked index %d, want 2 (oldest by Seq)", got)
	}
	// A lone writeback miss (non-read, no hit) is still served.
	table = entries(m, mem.Request{ID: 9, Kind: mem.Writeback, Addr: m.Unmap(dram.Addr{Bank: 2, Row: 7})})
	if got := (FRFCFS{}).Pick(table, openRows); got != 0 {
		t.Fatalf("FR-FCFS picked index %d, want 0", got)
	}
}

func TestFCFSPicksOldest(t *testing.T) {
	m, _ := NewRowBankCol(16, 128)
	table := entries(m, mem.Request{ID: 9}, mem.Request{ID: 1})
	none := openRowsWith(0, -1)
	if got := (FCFS{}).Pick(table, none); got != 0 {
		t.Fatalf("FCFS picked %d, want 0", got)
	}
	// Seq, not slice order, decides.
	table[0].Seq, table[1].Seq = 3, 2
	if got := (FCFS{}).Pick(table, none); got != 1 {
		t.Fatalf("FCFS picked %d, want 1 (lower Seq)", got)
	}
	if FCFS.Name(FCFS{}) != "fcfs" || FRFCFS.Name(FRFCFS{}) != "fr-fcfs" {
		t.Fatalf("scheduler names wrong")
	}
}

func newControllerEnv(t *testing.T) (*BaseController, *Env) {
	t.Helper()
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := tile.New(chip, tile.DefaultCostModel())
	m, err := NewRowBankCol(chip.Geometry().Banks, cfg.ColsPerRow)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewBaseController(Config{Mapper: m, RowsPerBank: cfg.RowsPerBank}, chip.Timing(), chip.Geometry().Banks)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, NewEnv(tl)
}

func TestControllerServesRead(t *testing.T) {
	ctl, env := newControllerEnv(t)
	env.Tile().PushRequest(&mem.Request{ID: 1, Kind: mem.Read, Addr: 0})
	env.Reset(0)
	worked, err := ctl.ServeOne(env)
	if err != nil {
		t.Fatalf("ServeOne: %v", err)
	}
	if !worked {
		t.Fatalf("controller did not serve")
	}
	resp := env.Responses()
	if len(resp) != 1 || resp[0].ReqID != 1 || !resp[0].OK {
		t.Fatalf("responses = %+v", resp)
	}
	if env.ChargedFPGA() == 0 || env.Occupancy() == 0 || env.Latency() < env.Occupancy() {
		t.Fatalf("accounting: charged=%d occ=%v lat=%v", env.ChargedFPGA(), env.Occupancy(), env.Latency())
	}
	if ctl.Stats().Reads != 1 || ctl.Stats().RowMisses != 1 {
		t.Fatalf("stats = %+v", ctl.Stats())
	}
}

func TestControllerRowHitTracking(t *testing.T) {
	ctl, env := newControllerEnv(t)
	for i := uint64(0); i < 3; i++ {
		env.Tile().PushRequest(&mem.Request{ID: i + 1, Kind: mem.Read, Addr: i * 64})
	}
	for i := 0; i < 3; i++ {
		env.Reset(0)
		if _, err := ctl.ServeOne(env); err != nil {
			t.Fatal(err)
		}
	}
	st := ctl.Stats()
	if st.RowMisses != 1 || st.RowHits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.RowHits, st.RowMisses)
	}
	if ctl.OpenRow(0) != 0 {
		t.Fatalf("open row not tracked")
	}
}

func TestControllerIdleReturnsFalse(t *testing.T) {
	ctl, env := newControllerEnv(t)
	env.Reset(0)
	worked, err := ctl.ServeOne(env)
	if err != nil || worked {
		t.Fatalf("idle controller: worked=%v err=%v", worked, err)
	}
	if ctl.Pending() != 0 {
		t.Fatalf("pending = %d", ctl.Pending())
	}
}

func TestControllerProfileDetectsWeakLine(t *testing.T) {
	ctl, env := newControllerEnv(t)
	m := ctl.Mapper()
	chip := env.Tile().Chip()
	vm := chip.Variation()

	// Locate a weak line and a strong line.
	var weakAddr, strongAddr uint64
	foundWeak := false
	for bank := 0; bank < 16 && !foundWeak; bank++ {
		for row := 0; row < 4096 && !foundWeak; row++ {
			if vm.Strong(bank, row) {
				continue
			}
			rowV := vm.MinTRCDRow(bank, row)
			for col := 0; col < 128; col++ {
				if vm.MinTRCDLine(bank, row, col) == rowV {
					weakAddr = m.Unmap(dram.Addr{Bank: bank, Row: row, Col: col})
					foundWeak = true
					break
				}
			}
		}
	}
	if !foundWeak {
		t.Fatalf("no weak line in module")
	}
	strongAddr = func() uint64 {
		for row := 0; row < 4096; row++ {
			if vm.Strong(0, row) {
				return m.Unmap(dram.Addr{Bank: 0, Row: row})
			}
		}
		t.Fatalf("no strong row")
		return 0
	}()

	serve := func(addr uint64, rcd int64) bool {
		env.Tile().PushRequest(&mem.Request{ID: 99, Kind: mem.Profile, Addr: addr, RCD: 9000})
		env.Reset(0)
		if _, err := ctl.ServeOne(env); err != nil {
			t.Fatalf("ServeOne: %v", err)
		}
		return env.Responses()[0].OK
	}
	if serve(weakAddr, 9000) {
		t.Fatalf("profiling a weak line at 9ns must fail")
	}
	if !serve(strongAddr, 9000) {
		t.Fatalf("profiling a strong line at 9ns must pass")
	}
}

func TestControllerRefresh(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := tile.New(chip, tile.DefaultCostModel())
	m, _ := NewRowBankCol(chip.Geometry().Banks, cfg.ColsPerRow)
	ctl, err := NewBaseController(Config{Mapper: m, RefreshEnabled: true, RowsPerBank: cfg.RowsPerBank}, chip.Timing(), chip.Geometry().Banks)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(tl)
	if !ctl.RefreshEnabled() {
		t.Fatalf("refresh should be enabled")
	}
	due := ctl.NextRefreshDue()
	if due != chip.Timing().TREFI {
		t.Fatalf("first refresh due at %v, want tREFI", due)
	}
	env.Reset(due)
	if err := ctl.ServeRefresh(env); err != nil {
		t.Fatal(err)
	}
	if ctl.Stats().Refreshes != 1 {
		t.Fatalf("refresh not recorded: %+v", ctl.Stats())
	}
	if ctl.NextRefreshDue() != due+chip.Timing().TREFI {
		t.Fatalf("refresh schedule did not advance")
	}
	if chip.Stats().REFs != 1 {
		t.Fatalf("REF did not reach the chip")
	}
	if env.Occupancy() < chip.Timing().TRFC {
		t.Fatalf("refresh occupancy %v below tRFC", env.Occupancy())
	}
}

func TestControllerRowCloneCrossBankFails(t *testing.T) {
	ctl, env := newControllerEnv(t)
	m := ctl.Mapper()
	src := m.Unmap(dram.Addr{Bank: 0, Row: 10})
	dst := m.Unmap(dram.Addr{Bank: 1, Row: 10})
	env.Tile().PushRequest(&mem.Request{ID: 5, Kind: mem.RowClone, Addr: dst, Src: src})
	env.Reset(0)
	if _, err := ctl.ServeOne(env); err != nil {
		t.Fatal(err)
	}
	if env.Responses()[0].OK {
		t.Fatalf("cross-bank RowClone must respond not-OK")
	}
}

func TestControllerNeedsMapper(t *testing.T) {
	if _, err := NewBaseController(Config{}, dram.DefaultConfig().Timing, 16); err == nil {
		t.Fatalf("controller without mapper must fail")
	}
}

func TestControllerNeedsRows(t *testing.T) {
	m, err := NewRowBankCol(16, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBaseController(Config{Mapper: m}, dram.DefaultConfig().Timing, 16); err == nil {
		t.Fatalf("controller without RowsPerBank must fail")
	}
}
