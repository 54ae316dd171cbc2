package dram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/variation"
)

// memoTarget is a device under the threshold-memo oracle with the hooks the
// memo-free reference needs: the variation model and rank-local bank behind
// a device-global bank, and data access that issues no command.
type memoTarget struct {
	dev   Device
	banks int
	vm    func(bank int) (*variation.Model, int)
	peek  func(Addr, []byte) bool
	poke  func(Addr, []byte) bool
	stats func() Stats
}

// TestReadThresholdMemoMatchesReference drives reduced-tRCD reads through
// Chip.Read, whose reliability comes from the per-bank threshold memo, and
// checks each one against a reference built from vm.ReadReliable with no
// memo: reliability, the CorruptedReads count and the corrupted first data
// word. Rows alternate within each bank, two banks are open at once, and
// every read lands just below or at one of the levels (or at nominal).
func TestReadThresholdMemoMatchesReference(t *testing.T) {
	cfg := testConfig()
	chip := newTestChip(t, cfg)
	mod, err := NewModule(cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	bpr := cfg.BankGroups * cfg.BanksPerGroup
	targets := map[string]memoTarget{
		"chip": {
			dev: chip, banks: bpr,
			vm:    func(bank int) (*variation.Model, int) { return chip.Variation(), bank },
			peek:  chip.PeekLine,
			poke:  chip.PokeLine,
			stats: chip.Stats,
		},
		"module-2rank": {
			dev: mod, banks: mod.Banks(),
			vm: func(bank int) (*variation.Model, int) {
				return mod.Rank(bank / bpr).Variation(), bank % bpr
			},
			peek:  mod.PeekLine,
			poke:  mod.PokeLine,
			stats: mod.Stats,
		},
	}
	for name, tg := range targets {
		t.Run(name, func(t *testing.T) { checkThresholdMemo(t, tg, cfg) })
	}
}

func checkThresholdMemo(t *testing.T, tg memoTarget, cfg Config) {
	nominal := cfg.Timing.TRCD
	period := cfg.Timing.Bus.Period()
	rcds := []clock.PS{8999, 9000, 9499, 9500, 9999, 10000, 10499, 10500, nominal}

	// Per bank, the first row at each level, each line filled with a
	// coordinate-derived pattern.
	rows := make([][]int, tg.banks)
	line := make([]byte, LineBytes)
	for bank := range rows {
		vm, local := tg.vm(bank)
		seen := map[clock.PS]bool{}
		for row := 0; row < cfg.RowsPerBank && len(seen) < 4; row++ {
			if lv := vm.MinTRCDRow(local, row); !seen[lv] {
				seen[lv] = true
				rows[bank] = append(rows[bank], row)
			}
		}
		if len(rows[bank]) < 2 {
			t.Fatalf("bank %d: only %d levels present", bank, len(rows[bank]))
		}
		for _, row := range rows[bank] {
			for col := 0; col < cfg.ColsPerRow; col++ {
				for i := range line {
					line[i] = byte(bank*31 + row*7 + col + i)
				}
				tg.poke(Addr{Bank: bank, Row: row, Col: col}, line)
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	next := make([]int, tg.banks) // per-bank index into rows: alternates
	var (
		now                         clock.PS
		unreliable, reliableReduced int
		weakOnly                    int
		want, got                   = make([]byte, LineBytes), make([]byte, LineBytes)
		levelsFailed                = map[clock.PS]bool{}
	)
	for step := 0; step < 1500; step++ {
		// Two distinct banks open at once, activated one bus cycle apart.
		b0 := rng.Intn(tg.banks)
		b1 := (b0 + 1 + rng.Intn(tg.banks-1)) % tg.banks
		type open struct {
			bank, row int
			act       clock.PS
			rcd       clock.PS
		}
		opens := []open{}
		for i, bank := range []int{b0, b1} {
			row := rows[bank][next[bank]%len(rows[bank])]
			next[bank]++
			o := open{bank: bank, row: row, act: now + clock.PS(i)*period, rcd: rcds[rng.Intn(len(rcds))]}
			tg.dev.Activate(bank, row, o.act, o.rcd)
			opens = append(opens, o)
		}
		if opens[1].act+opens[1].rcd < opens[0].act+opens[0].rcd {
			opens[0], opens[1] = opens[1], opens[0]
		}
		end := now
		for _, o := range opens {
			vm, local := tg.vm(o.bank)
			weakCol, _, _ := vm.LineThresholds(local, o.row)
			cols := []int{rng.Intn(cfg.ColsPerRow), rng.Intn(cfg.ColsPerRow)}
			if weakCol >= 0 {
				cols = append(cols, weakCol)
			}
			for k, col := range cols {
				at := o.act + o.rcd + clock.PS(k)*period
				eff := min(at-o.act, nominal)
				wantRel := vm.ReadReliable(local, o.row, col, eff)
				tg.peek(Addr{Bank: o.bank, Row: o.row, Col: col}, want)
				if !wantRel {
					w := binary.LittleEndian.Uint64(want) ^ vm.CorruptionMask(local, o.row, col)
					binary.LittleEndian.PutUint64(want, w)
				}
				before := tg.stats().CorruptedReads
				rel, err := tg.dev.Read(o.bank, col, at, got)
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				if rel != wantRel {
					t.Fatalf("step %d (%d,%d,%d) at tRCD %v: reliable %v, reference %v", step, o.bank, o.row, col, eff, rel, wantRel)
				}
				if d := tg.stats().CorruptedReads - before; d != int64(boolInt(!wantRel)) {
					t.Fatalf("step %d: CorruptedReads moved by %d, reference unreliable=%v", step, d, !wantRel)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d (%d,%d,%d): data %x, reference %x", step, o.bank, o.row, col, got[:8], want[:8])
				}
				switch {
				case !wantRel:
					unreliable++
					levelsFailed[vm.MinTRCDLine(local, o.row, col)] = true
					if vm.MinTRCDLine(local, o.row, (col+1)%cfg.ColsPerRow) <= eff && col == weakCol {
						weakOnly++ // the weakest line fails where its neighbours pass
					}
				case eff < nominal:
					reliableReduced++
				}
				end = max(end, at)
			}
		}
		for i, o := range opens {
			tg.dev.Precharge(o.bank, end+clock.PS(i+1)*period)
		}
		now = end + 64*period
	}
	if unreliable == 0 || reliableReduced == 0 || weakOnly == 0 {
		t.Fatalf("coverage: %d unreliable, %d reliable reduced-tRCD, %d weakest-line-only failures", unreliable, reliableReduced, weakOnly)
	}
	for _, lv := range []clock.PS{9000, 9500, 10000, 10500} {
		if !levelsFailed[lv] {
			t.Fatalf("no failing read of a line at level %v", lv)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
