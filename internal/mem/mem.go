// Package mem defines the memory-request types exchanged between the
// processor model, the EasyTile hardware buffers, and the software memory
// controller. It exists so the cpu, tile, and smc packages do not import
// each other.
package mem

import (
	"fmt"

	"easydram/internal/clock"
)

// Kind classifies a main-memory request.
type Kind uint8

// Request kinds.
const (
	// Read is a demand cache-line fill.
	Read Kind = iota + 1
	// Write is a cache-line store reaching memory (uncached or flushed).
	Write
	// Writeback is a dirty-line eviction; posted (no processor waits on it).
	Writeback
	// RowClone asks the controller to perform an in-DRAM row copy.
	RowClone
	// Profile asks the controller to test a cache line at a reduced tRCD
	// (§8.1 profiling request).
	Profile
	// Bitwise asks the controller to perform an in-DRAM bulk bitwise
	// majority (ComputeDRAM-class many-row activation; extension).
	Bitwise
	// ProfileRow asks the controller to test every cache line of the row at
	// Addr (row-aligned) at a reduced tRCD with a single Bender program —
	// the row-granularity fast path of the §8.1 characterization. The
	// response reports per-row detail in Response.RowLines.
	ProfileRow
)

var kindNames = map[Kind]string{
	Read: "read", Write: "write", Writeback: "writeback",
	RowClone: "rowclone", Profile: "profile", Bitwise: "bitwise",
	ProfileRow: "profilerow",
}

// String returns the kind's lower-case name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Request is one main-memory request as it sits in the EasyTile hardware
// request buffer.
type Request struct {
	ID   uint64
	Kind Kind
	// Addr is the physical byte address (line-aligned for Read/Write/
	// Writeback, row-aligned destination for RowClone).
	Addr uint64
	// Src is the row-aligned RowClone source address.
	Src uint64
	// RCD is the reduced tRCD to test for Profile requests.
	RCD clock.PS
	// Rows extends a ProfileRow request to a bank stripe: the number of
	// consecutive rows (starting at Addr's row) covered by one Bender
	// program. 0 and 1 both mean a single row. Bounded by the readback
	// buffer (64 rows of a 128-column module).
	Rows int
	// Posted requests complete without the processor consuming a response.
	Posted bool
}

// Response is the controller's answer to a request. The release point at
// which the processor may consume a response (Figure 5 step 10) is not part
// of the response itself: the engine computes it while settling the step
// and tracks it in its release queue, keyed by ReqID.
type Response struct {
	ReqID uint64
	// OK reports technique-specific success: profile passed, RowClone
	// succeeded. Always true for plain reads/writes.
	OK bool
	// RowLines carries profiling detail: element r is the number of
	// leading reliable lines of the r-th covered row (equal to the column
	// count when the row passed; a Profile request covers one line, so its
	// one element is 0 or 1). Nil for every non-profiling request — the hot
	// access path never allocates it.
	RowLines []int
}
