package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAccessFillMatchesAccessThenInstall checks the fused L2 scan against
// the two-call path it replaces: a read Access and, on a miss,
// Install(addr, false) on a twin cache. Writes (dirty lines, so evictions
// carry dirty victims) and Flushes (invalid ways in the middle of full
// sets) are applied to both caches between fills. Hit, victim, statistics,
// and the touched set's tag words and recency word must match after each
// step, and the returned index must name the line.
func TestAccessFillMatchesAccessThenInstall(t *testing.T) {
	for _, geom := range []struct{ sets, assoc int }{{1, 1}, {4, 2}, {8, 4}, {2, 8}} {
		size := geom.sets * geom.assoc * LineBytes
		fused := newTestCache(t, size, geom.assoc)
		twin := newTestCache(t, size, geom.assoc)
		rng := rand.New(rand.NewSource(int64(1000*geom.sets + geom.assoc)))
		// Three lines per way keep sets full and conflicting.
		lines := 3 * geom.sets * geom.assoc
		var misses, dirtyVictims, invalidFills int
		for step := 0; step < 20000; step++ {
			addr := uint64(rng.Intn(lines))*LineBytes + uint64(rng.Intn(LineBytes))
			switch op := rng.Intn(10); {
			case op < 2:
				// A write hit dirties the line in both caches.
				if fused.Access(addr, true) != twin.Access(addr, true) {
					t.Fatalf("%v step %d: write Access disagrees", geom, step)
				}
			case op < 3:
				fp, fd := fused.Flush(addr)
				tp, td := twin.Flush(addr)
				if fp != tp || fd != td {
					t.Fatalf("%v step %d: Flush disagrees", geom, step)
				}
			default:
				set := twin.setOf(addr)
				hadInvalid := setHasInvalid(twin, addr)
				idx, hit, v := fused.accessFill(addr)
				wantHit := twin.Access(addr, false)
				var want Victim
				if !wantHit {
					want = twin.Install(addr, false)
					misses++
					if want.Dirty {
						dirtyVictims++
					}
					if hadInvalid {
						invalidFills++
					}
				}
				if hit != wantHit || v != want {
					t.Fatalf("%v step %d addr %#x: fused (%v, %+v), two-call (%v, %+v)", geom, step, addr, hit, v, wantHit, want)
				}
				if w := fused.tags[idx]; idx/geom.assoc != set || w|dirtyBit != fused.key(addr) {
					t.Fatalf("%v step %d addr %#x: index %d holds %#x, not the line", geom, step, addr, idx, w)
				}
				base := set * geom.assoc
				fs, ts := fused.tags[base:base+geom.assoc], twin.tags[base:base+geom.assoc]
				if !slices.Equal(fs, ts) || fused.recency[set] != twin.recency[set] {
					t.Fatalf("%v step %d: set %d = %#x order %#x, want %#x order %#x",
						geom, step, set, fs, fused.recency[set], ts, twin.recency[set])
				}
			}
			if fused.Stats() != twin.Stats() {
				t.Fatalf("%v step %d: stats %+v, want %+v", geom, step, fused.Stats(), twin.Stats())
			}
		}
		if misses == 0 || dirtyVictims == 0 || invalidFills == 0 {
			t.Fatalf("%v: weak coverage: %d misses, %d dirty victims, %d fills into sets with invalid ways",
				geom, misses, dirtyVictims, invalidFills)
		}
	}
}
