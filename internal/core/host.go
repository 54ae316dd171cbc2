package core

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/mem"
)

// Host-driven controller access. Characterization studies (DRAM profiling,
// clonability testing) run before workload emulation begins: the host
// enqueues requests directly into EasyTile and executes controller
// iterations synchronously, outside the emulated timeline (§8.1).

// hostServe pushes req and runs controller iterations until its response
// appears, returning the response. Host request IDs are a per-system
// counter (starting at hostReqIDBase, distinct from CPU-issued IDs) so that
// systems running concurrently under the parallel experiments harness stay
// independent and deterministic.
func (s *System) hostServe(req mem.Request) (mem.Response, error) {
	s.hostReqID++
	req.ID = s.hostReqID
	c := &s.chans[s.chanIndex(req.Addr)]
	c.tile.PushRequest(&req)
	for i := 0; i < 1024; i++ {
		c.env.Clear()
		worked, err := c.ctl.ServeOne(c.env)
		if err != nil {
			return mem.Response{}, err
		}
		for _, r := range c.env.Responses() {
			if r.ReqID == req.ID {
				return r, nil
			}
		}
		if !worked {
			break
		}
	}
	return mem.Response{}, fmt.Errorf("core: host request %v not served", req.Kind)
}

// HostRequests reports how many host-driven characterization requests this
// system has issued so far — the number of host-to-controller round-trips,
// the quantity the whole-row profiling path exists to reduce.
func (s *System) HostRequests() uint64 { return s.hostReqID - hostReqIDBase }

// ProfileLine tests whether the cache line at physical address pa reads
// reliably with the given tRCD (a §8.1 profiling request). It is the
// per-line compatibility path; bulk characterization should use
// ProfileRowStripe, which covers up to 64 rows per round-trip.
func (s *System) ProfileLine(pa uint64, rcd clock.PS) (bool, error) {
	r, err := s.hostServe(mem.Request{Kind: mem.Profile, Addr: pa, RCD: rcd})
	return r.OK, err
}

// rowBase returns the address of the first line of pa's DRAM row. A plain
// low-bit mask is only correct for the default topology: under channel
// interleaving the channel bits sit inside the row's byte span, so the
// alignment goes through the mapper (decode, zero the column, re-encode),
// which preserves the channel and rank coordinates for any interleave.
func (s *System) rowBase(pa uint64) uint64 {
	a := s.mapper.Map(pa)
	a.Col = 0
	return s.mapper.Unmap(a)
}

// ProfileRowStripe tests every cache line of `rows` consecutive DRAM rows
// starting at the row containing pa (row-aligned internally) at the given
// tRCD, with a single bank-stripe profiling request — one host round-trip
// and one Bender program for up to 64 rows (the readback-buffer bound; see
// bender.StripeRowsMax). rowLines[r] is the r-th covered row's leading
// reliable line count (the column count when the row passed); ok reports
// whether every line of every row passed. Per-line outcomes are identical
// to repeated ProfileLine calls. A stripe that runs past the bank's last
// row, or a negative row count, is an error.
func (s *System) ProfileRowStripe(pa uint64, rows int, rcd clock.PS) (rowLines []int, ok bool, err error) {
	r, err := s.hostServe(mem.Request{Kind: mem.ProfileRow, Addr: s.rowBase(pa), RCD: rcd, Rows: rows})
	return r.RowLines, r.OK, err
}

// BitwiseMAJ performs an in-DRAM bulk bitwise majority across the rows at
// r1, r2 (row-aligned physical addresses) and their address-OR row, via a
// many-row activation (ComputeDRAM-class extension). It reports whether the
// chip committed the result.
func (s *System) BitwiseMAJ(r1, r2 uint64) (bool, error) {
	r, err := s.hostServe(mem.Request{Kind: mem.Bitwise, Addr: r2, Src: r1})
	return r.OK, err
}

// TestRowClone performs trial RowClone copies from the row at src to the
// row at dst (both physical, row-aligned) and reports whether every trial
// succeeded — the PiDRAM-style clonability test (§7.1: an address pair is
// clonable only if it never fails).
func (s *System) TestRowClone(src, dst uint64, trials int) (bool, error) {
	if trials <= 0 {
		trials = 1
	}
	for i := 0; i < trials; i++ {
		r, err := s.hostServe(mem.Request{Kind: mem.RowClone, Addr: dst, Src: src})
		if err != nil {
			return false, err
		}
		if !r.OK {
			return false, nil
		}
	}
	return true, nil
}
