package cache

import (
	"math/rand"
	"testing"
)

// TestAccessFillMatchesAccessThenInstall checks the fused L2 scan against
// the two-call path it replaces: a read Access and, on a miss,
// Install(addr, false) on a twin cache. Writes (dirty lines, so evictions
// carry dirty victims) and Flushes (invalid ways in the middle of full
// sets) are applied to both caches between fills. Hit, victim, statistics
// and every line of the touched set must match after each step, and the
// returned index must name the line.
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
				hadInvalid := false
				for _, l := range twin.setSlice(set) {
					hadInvalid = hadInvalid || !l.valid
				}
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
				if l := fused.sets[idx]; idx/geom.assoc != set || !l.valid || l.tag != fused.tagOf(addr) {
					t.Fatalf("%v step %d addr %#x: index %d holds %+v, not the line", geom, step, addr, idx, l)
				}
				fs, ts := fused.setSlice(set), twin.setSlice(set)
				for i := range fs {
					if fs[i] != ts[i] {
						t.Fatalf("%v step %d: set %d way %d = %+v, want %+v", geom, step, set, i, fs[i], ts[i])
					}
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
