package smc

import (
	"testing"

	"easydram/internal/dram"
	"easydram/internal/mem"
)

func TestBLISSCapsRowHitStreak(t *testing.T) {
	m, err := NewRowBankCol(16, 128)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBLISS()
	openRows := openRowsWith(0, 7)
	hit := func(id uint64, col int) mem.Request {
		return mem.Request{ID: id, Kind: mem.Read, Addr: m.Unmap(dram.Addr{Bank: 0, Row: 7, Col: col})}
	}
	missReq := mem.Request{ID: 99, Kind: mem.Read, Addr: m.Unmap(dram.Addr{Bank: 3, Row: 1})}

	table := entries(m, missReq, hit(1, 0), hit(2, 1), hit(3, 2), hit(4, 3), hit(5, 4))
	// The first MaxStreak picks favour row hits...
	for i := 0; i < s.MaxStreak; i++ {
		got := s.Pick(table, openRows)
		if table[got].ID == 99 {
			t.Fatalf("pick %d chose the miss before the streak cap", i)
		}
		table = append(table[:got], table[got+1:]...)
	}
	// ...then the blacklist forces the oldest (the miss).
	got := s.Pick(table, openRows)
	if table[got].ID != 99 {
		t.Fatalf("streak cap did not trigger: picked %d", table[got].ID)
	}
}

func TestBLISSName(t *testing.T) {
	if NewBLISS().Name() != "bliss" {
		t.Fatalf("name wrong")
	}
}
