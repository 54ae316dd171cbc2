package smc

import (
	"fmt"

	"easydram/internal/dram"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// Entry is one request as buffered in the controller's software request
// table, together with metadata the controller computes once at ingest so
// that scheduling decisions stay O(table) with no per-entry address
// translation and no request copying:
//
//   - Slot is the request's index in the tile's pooled request slab. The
//     48-byte mem.Request is written once at issue; the table carries the
//     4-byte slot plus the hot fields (ID, Kind, decoded coordinates), so
//     the former reqScratch -> FIFO -> Entry copy chain is gone. Cold
//     fields (RCD, Rows for profiling requests) are read from the slab at
//     service time.
//   - Addr is the decoded DRAM coordinate of the request's address (and
//     Src of its source, for the two-address techniques). Decoding happens
//     once per request instead of once per request per scheduling decision;
//     the modeled MapAddr cost is still charged at service time, so
//     emulated timing is unchanged.
//   - Seq is a monotone arrival sequence number. The table is kept in
//     arrival order — the controller removes a served entry by shifting
//     the older entries up a slot, never by swapping — so index 0 is the
//     oldest entry and Seq increases with the index. Seq stays for custom
//     schedulers that keep history across decisions.
type Entry struct {
	// Slot indexes the tile's pooled request slab.
	Slot tile.ReqSlot
	// ID is the request's ID (responses are keyed by it).
	ID uint64
	// Kind classifies the request.
	Kind mem.Kind
	// Addr is the request's address decoded to DRAM coordinates.
	Addr dram.Addr
	// Src is the source address decoded (RowClone and Bitwise requests).
	Src dram.Addr
	// Seq is the arrival order: lower is older.
	Seq uint64
}

// IsAccess reports whether the entry is a plain cache-line access — Read,
// Write, or Writeback — rather than a technique request.
func (e *Entry) IsAccess() bool {
	switch e.Kind {
	case mem.Read, mem.Write, mem.Writeback:
		return true
	}
	return false
}

// Scheduler selects the next buffered request to serve (EasyAPI provides
// FCFS, FR-FCFS, and BLISS implementations; users can plug their own).
type Scheduler interface {
	Name() string
	// Pick returns the index of the entry to serve next. openRows[b] is the
	// currently open row of bank b (-1 when precharged). Pick is only
	// called with a non-empty table. Entries are in age order: index 0 is
	// the oldest, so the first eligible entry of a scan is the oldest one.
	Pick(table []Entry, openRows []int) int
}

// Stateless reports whether s is one of the built-in stateless schedulers:
// safe to share across channels, and — with a one-entry table — safe to
// skip the Pick call for. Both the controller's single-entry fast path and
// the multi-channel system assembly consult this one predicate, so a new
// built-in policy only has to be classified here.
func Stateless(s Scheduler) bool {
	switch s.(type) {
	case FCFS, FRFCFS:
		return true
	}
	return false
}

// ChannelScheduler is implemented by stateful schedulers that can produce
// an independent instance per channel. Multi-channel systems run one
// request table and one scheduler per channel; a stateful policy (BLISS
// streaks, custom history) must not share its state across channels, so
// the system clones it once per extra channel. Stateless schedulers (FCFS,
// FR-FCFS) need no clone and may be shared.
type ChannelScheduler interface {
	Scheduler
	// CloneForChannel returns a fresh scheduler with the same policy
	// parameters and pristine state.
	CloneForChannel() Scheduler
}

// NewScheduler returns a fresh instance of the named built-in policy:
// "fr-fcfs" (also the empty name), "fcfs" or "bliss". Every call builds a
// new instance, so a stateful policy (BLISS) is never shared between
// systems.
func NewScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "fr-fcfs":
		return FRFCFS{}, nil
	case "fcfs":
		return FCFS{}, nil
	case "bliss":
		return NewBLISS(), nil
	}
	return nil, fmt.Errorf("smc: unknown scheduler %q (want fr-fcfs, fcfs or bliss)", name)
}

// FCFS serves requests strictly in arrival order.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Scheduler: the table is in arrival order, so the oldest
// request is at index 0.
func (FCFS) Pick(table []Entry, openRows []int) int { return 0 }

// FRFCFS implements First-Ready, First-Come-First-Served with read priority:
// the oldest row-hit read, then the oldest row-hit write, then the oldest
// read, then the oldest request of any kind (the explicit arrival-order
// fallback that also covers tables holding only technique requests). The
// table is in arrival order, so the first row-hit read ends the scan.
type FRFCFS struct{}

// Name implements Scheduler.
func (FRFCFS) Name() string { return "fr-fcfs" }

// Pick implements Scheduler.
func (FRFCFS) Pick(table []Entry, openRows []int) int {
	hitWrite, read := -1, -1
	for i := range table {
		e := &table[i]
		// Techniques (RowClone, Profile) are never row hits; they are
		// served in arrival order.
		switch e.Kind {
		case mem.Read:
			if openRows[e.Addr.Bank] == e.Addr.Row {
				return i
			}
			if read < 0 {
				read = i
			}
		case mem.Write, mem.Writeback:
			if hitWrite < 0 && openRows[e.Addr.Bank] == e.Addr.Row {
				hitWrite = i
			}
		}
	}
	if hitWrite >= 0 {
		return hitWrite
	}
	if read >= 0 {
		return read
	}
	return 0
}

var (
	_ Scheduler = FCFS{}
	_ Scheduler = FRFCFS{}
)
