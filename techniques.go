package easydram

import (
	"fmt"

	"easydram/internal/alloc"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// This file exposes the two case-study techniques (§7, §8) through the
// public API: RowClone bulk copy/initialisation planning and tRCD-reduction
// characterization.

// RowClonePlan describes how a bulk copy or initialisation executes: which
// rows clone in DRAM and which fall back to CPU loads/stores.
type RowClonePlan = workload.RowClonePlan

// Planner allocates rows and builds RowClone plans against a system's
// DRAM module.
type Planner struct {
	sys    *System
	alloc  *alloc.Allocator
	trials int
}

// NewPlanner returns a planner over sys. trials is the per-pair clonability
// test count (PiDRAM uses 1000; the model is deterministic, so 3 suffices).
func NewPlanner(sys *System, trials int) (*Planner, error) {
	cfg := sys.Config()
	a, err := alloc.New(sys.internal().Mapper(), cfg.DRAM.SubarrayRows, cfg.DRAM.RowsPerBank)
	if err != nil {
		return nil, fmt.Errorf("easydram: %w", err)
	}
	if trials <= 0 {
		trials = 3
	}
	return &Planner{sys: sys, alloc: a, trials: trials}, nil
}

// AllocArray reserves size bytes of row-aligned memory and returns its base.
func (p *Planner) AllocArray(size int) (uint64, error) {
	base, err := p.alloc.AllocContiguous(p.alloc.RowsFor(size))
	if err != nil {
		return 0, fmt.Errorf("easydram: %w", err)
	}
	return base, nil
}

// PlanCopy builds the plan for copying size bytes out of srcBase using
// RowClone wherever a clonable destination row exists (§7.1). flush selects
// the CLFLUSH coherence setting.
func (p *Planner) PlanCopy(srcBase uint64, size int, flush bool) (RowClonePlan, error) {
	return techniques.PlanCopy(p.alloc, srcBase, size,
		techniques.SystemTester(p.sys.internal(), p.trials), flush)
}

// PlanInit builds the plan for initialising size bytes at dstBase with a
// pattern using per-subarray source rows (§7.1).
func (p *Planner) PlanInit(dstBase uint64, size int, flush bool) (RowClonePlan, error) {
	return techniques.PlanInit(p.alloc, dstBase, size,
		techniques.SystemTester(p.sys.internal(), p.trials), flush)
}

// ReducedTRCD is the aggressive row-activation timing used for strong rows
// (9.0 ns; nominal is 13.5 ns).
const ReducedTRCD = techniques.ReducedTRCD

// ProfileWeakRows characterizes every row covering [start, end) on every
// channel with §8.1 bank-stripe profiling requests at the given tRCD and
// returns a TRCDProvider backed by per-channel Bloom filters of the weak
// rows (§8.2), plus the weak-row fraction. It is Characterize followed by
// WeakRowProfile.Provider. Requires WithDataTracking on the profiling
// system.
func (s *System) ProfileWeakRows(start, end uint64, rcd PS, fpRate float64) (TRCDProvider, float64, error) {
	p, err := s.Characterize(start, end, rcd, fpRate)
	if err != nil {
		return nil, 0, err
	}
	return p.Provider(s, rcd), p.WeakFraction(), nil
}
