package cache

import (
	"fmt"
	"slices"
	"testing"
)

// The MRU probe's edge cases, on a 4-set cache at every associativity
// extreme. Lines go to set 2, so a position and its way number differ.
const (
	mruSets = 4
	mruSet  = 2
)

var mruAssocs = []int{1, 2, 4, 16}

// mruLine returns the address of the line with tag t in set mruSet.
func mruLine(t int) uint64 { return uint64(t*mruSets+mruSet) * LineBytes }

// mruPos returns the position nibble 0 of set mruSet's recency word
// names: the set's most recently used way.
func mruPos(c *Cache) int { return mruSet*c.assoc + int(c.recency[mruSet]&15) }

// fillSet installs tags 1..assoc-1 and then tag 0 into set mruSet, clean,
// so the tag-0 line is the most recently used and sits in the last way.
func fillSet(t *testing.T, c *Cache) (tag0Pos int) {
	t.Helper()
	for tag := 1; tag < c.assoc; tag++ {
		c.Install(mruLine(tag), false)
	}
	c.Install(mruLine(0), false)
	if p := mruPos(c); p != mruSet*c.assoc+c.assoc-1 || c.tags[p] != validBit {
		t.Fatalf("MRU way at %d holds %#x, want the tag-0 line in the last way", p, c.tags[p])
	}
	return mruPos(c)
}

// TestMRUProbeSkipsFlushedWay flushes the most recently used line, whose
// tag is 0, so its way's zero tag word stays named by nibble 0 and differs
// from the line's key only in the valid bit. Re-accessing the line must
// miss and install it in that way; every other line of the set must still
// be found by the scan.
func TestMRUProbeSkipsFlushedWay(t *testing.T) {
	for _, assoc := range mruAssocs {
		t.Run(fmt.Sprint(assoc), func(t *testing.T) {
			c := newTestCache(t, mruSets*assoc*LineBytes, assoc)
			pos := fillSet(t, c)
			rec := c.recency[mruSet]
			if present, dirty := c.Flush(mruLine(0)); !present || dirty {
				t.Fatalf("Flush = (%v, %v), want (true, false)", present, dirty)
			}
			if c.tags[pos] != 0 || c.recency[mruSet] != rec {
				t.Fatalf("flushed way: tag word %#x, recency %#x; want 0 and %#x unchanged", c.tags[pos], c.recency[mruSet], rec)
			}
			if c.Lookup(mruLine(0)) || c.index(mruLine(0)) != -1 {
				t.Fatalf("the flushed line is still found")
			}
			if c.Access(mruLine(0), true) {
				t.Fatalf("Access of the flushed line hits")
			}
			if present, _ := c.Flush(mruLine(0)); present {
				t.Fatalf("a second Flush finds the line")
			}
			idx, hit, v := c.accessFill(mruLine(0))
			if hit || v.Valid || idx != pos {
				t.Fatalf("accessFill = (%d, %v, %+v), want a miss filling the flushed way %d", idx, hit, v, pos)
			}
			if c.tags[pos] != validBit || mruPos(c) != pos {
				t.Fatalf("refilled way holds %#x, MRU at %d", c.tags[pos], mruPos(c))
			}
			for tag := 1; tag < assoc; tag++ {
				if !c.Access(mruLine(tag), false) {
					t.Fatalf("tag %d misses behind the flushed MRU way", tag)
				}
				if p := mruPos(c); c.tags[p] != uint64(tag)<<2|validBit {
					t.Fatalf("tag %d hit but the MRU way holds %#x", tag, c.tags[p])
				}
			}
			hits, misses := int64(assoc-1), int64(2)
			// Flushing the MRU line again leaves the refilled tag-0 line
			// behind a zero MRU tag word.
			if assoc > 1 {
				c.Flush(mruLine(assoc - 1))
				if !c.Access(mruLine(0), false) || c.Access(mruLine(assoc-1), false) {
					t.Fatalf("after flushing the MRU line, tag 0 misses or the flushed line hits")
				}
				hits, misses = hits+1, misses+1
			}
			if st := c.Stats(); st.Hits != hits || st.Misses != misses {
				t.Fatalf("stats %+v, want %d hits and %d misses", st, hits, misses)
			}
		})
	}
}

// TestMRUProbeWriteHitDirties stores to the most recently used line: the
// hit must dirty it, leave the recency word as it is, and make the line's
// later eviction a writeback.
func TestMRUProbeWriteHitDirties(t *testing.T) {
	for _, assoc := range mruAssocs {
		t.Run(fmt.Sprint(assoc), func(t *testing.T) {
			c := newTestCache(t, mruSets*assoc*LineBytes, assoc)
			pos := fillSet(t, c)
			rec := c.recency[mruSet]
			if !c.Access(mruLine(0), true) {
				t.Fatalf("store to the MRU line misses")
			}
			if c.tags[pos] != validBit|dirtyBit || c.recency[mruSet] != rec {
				t.Fatalf("after the store: tag word %#x, recency %#x; want %#x and %#x", c.tags[pos], c.recency[mruSet], validBit|dirtyBit, rec)
			}
			// A load hit keeps it dirty.
			if !c.Access(mruLine(0), false) || c.tags[pos] != validBit|dirtyBit {
				t.Fatalf("load after store: tag word %#x", c.tags[pos])
			}
			// assoc new lines push the whole set out, the tag-0 line last.
			var victims []Victim
			for tag := assoc; tag < 2*assoc; tag++ {
				if v := c.Install(mruLine(tag), false); v.Valid {
					victims = append(victims, v)
				}
			}
			want := Victim{Addr: mruLine(0), Dirty: true, Valid: true}
			if len(victims) != assoc || victims[len(victims)-1] != want {
				t.Fatalf("victims %+v, want the last to be %+v", victims, want)
			}
			if st := c.Stats(); st.Writebacks != 1 || st.Hits != 2 {
				t.Fatalf("stats %+v, want 1 writeback and 2 hits", st)
			}
		})
	}
}

// TestAccessFillMRUHitPosition checks that an accessFill hit on the most
// recently used way returns that way's exact position, counts one hit and
// changes no tag or recency word; index must return the same position.
func TestAccessFillMRUHitPosition(t *testing.T) {
	for _, assoc := range mruAssocs {
		t.Run(fmt.Sprint(assoc), func(t *testing.T) {
			c := newTestCache(t, mruSets*assoc*LineBytes, assoc)
			pos := fillSet(t, c)
			tags, rec := slices.Clone(c.tags), c.recency[mruSet]
			for i := 0; i < 3; i++ {
				idx, hit, v := c.accessFill(mruLine(0))
				if idx != pos || !hit || v != (Victim{}) {
					t.Fatalf("accessFill = (%d, %v, %+v), want (%d, true, {})", idx, hit, v, pos)
				}
				if got := c.index(mruLine(0) + 17); got != pos {
					t.Fatalf("index = %d, want %d", got, pos)
				}
			}
			if c.recency[mruSet] != rec || !slices.Equal(c.tags, tags) {
				t.Fatalf("accessFill hits changed the cache")
			}
			if st := c.Stats(); st.Hits != 3 || st.Misses != 0 {
				t.Fatalf("stats %+v, want 3 hits", st)
			}
		})
	}
}
