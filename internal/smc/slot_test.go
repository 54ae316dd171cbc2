package smc

import (
	"testing"

	"easydram/internal/dram"
	"easydram/internal/mem"
)

// TestPlainResponseAfterProfileHasNoRowLines: Env reuses its responses
// slots from step to step, so a plain access served after a profile
// request must not inherit the profile's per-row detail.
func TestPlainResponseAfterProfileHasNoRowLines(t *testing.T) {
	ctl, env := newControllerEnv(t)
	env.Tile().PushRequest(&mem.Request{ID: 1, Kind: mem.Profile, Addr: 0, RCD: 9000})
	env.Clear()
	if _, err := ctl.ServeOne(env); err != nil {
		t.Fatal(err)
	}
	if r := env.Responses(); len(r) != 1 || r[0].ReqID != 1 || len(r[0].RowLines) != 1 {
		t.Fatalf("profile responses = %+v, want one carrying one RowLines element", r)
	}
	env.Tile().PushRequest(&mem.Request{ID: 2, Kind: mem.Read, Addr: 1 << 20})
	env.Clear()
	if _, err := ctl.ServeOne(env); err != nil {
		t.Fatal(err)
	}
	if r := env.Responses(); len(r) != 1 || r[0].ReqID != 2 || !r[0].OK || r[0].RowLines != nil {
		t.Fatalf("read responses = %+v, want one OK response with nil RowLines", r)
	}
}

// TestMapToOverwritesEveryField: MapTo writes into an entry that held
// another request's coordinates, so it must set every field, and agree
// with Map.
func TestMapToOverwritesEveryField(t *testing.T) {
	rbc, err := NewRowBankCol(16, 128)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopologyMapper(dram.Topology{Channels: 4, Ranks: 2, Interleave: dram.InterleaveLine}, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mapper{rbc, topo} {
		for _, pa := range []uint64{0, 64, 0x12345640, 1<<32 - 64} {
			a := dram.Addr{Chan: -1, Rank: -1, Bank: -1, Row: -1, Col: -1}
			m.MapTo(pa, &a)
			if want := m.Map(pa); a != want {
				t.Fatalf("%T: MapTo(%#x) over a stale address = %+v, Map = %+v", m, pa, a, want)
			}
		}
	}
}
