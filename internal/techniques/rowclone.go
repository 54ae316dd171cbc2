// Package techniques implements the paper's two case studies on top of the
// EasyDRAM stack: RowClone bulk copy/initialisation (§7) and DRAM access
// latency reduction via tRCD profiling with a Bloom filter of weak rows
// (§8). Both are pure software: they drive the EasyAPI, the allocator, and
// host-side characterization, exactly as a user of the framework would.
package techniques

import (
	"fmt"

	"easydram/internal/alloc"
	"easydram/internal/core"
	"easydram/internal/workload"
)

// ClonabilityTester reports whether RowClone from the row at src to the row
// at dst is reliable. Implementations profile real (modelled) DRAM.
type ClonabilityTester func(src, dst uint64) (bool, error)

// SystemTester profiles clonability on sys with the given trial count
// (PiDRAM uses 1000 trials; profiling on the chip model is deterministic,
// so a handful of trials gives the same verdict as a thousand).
func SystemTester(sys *core.System, trials int) ClonabilityTester {
	return func(src, dst uint64) (bool, error) {
		return sys.TestRowClone(src, dst, trials)
	}
}

// maxCandidates bounds the destination-row search per source row.
const maxCandidates = 8

// PlanCopy builds the RowClone execution plan for copying size bytes out of
// the contiguous source region at srcBase. For every source row the
// allocator searches its subarray for a clonable destination row; rows with
// no clonable destination fall back to CPU loads/stores into a freshly
// allocated row (§7.1 "Source and Target Row Allocation").
func PlanCopy(a *alloc.Allocator, srcBase uint64, size int, test ClonabilityTester, flush bool) (workload.RowClonePlan, error) {
	plan := workload.RowClonePlan{
		Name:     fmt.Sprintf("rowclone-copy-%d", size),
		RowBytes: a.RowBytes(),
		Flush:    flush,
	}
	for _, srcRow := range a.Rows(srcBase, size) {
		var chosen uint64
		found := false
		for _, cand := range a.FreeRowsInSubarray(srcRow, maxCandidates) {
			ok, err := test(srcRow, cand)
			if err != nil {
				return plan, fmt.Errorf("techniques: clonability test: %w", err)
			}
			if ok {
				chosen = cand
				found = true
				break
			}
		}
		if found {
			if err := a.TakeRow(chosen); err != nil {
				return plan, err
			}
			plan.Actions = append(plan.Actions, workload.RowAction{Clone: true, Src: srcRow, Dst: chosen})
			continue
		}
		dst, err := a.AllocContiguous(1)
		if err != nil {
			return plan, err
		}
		plan.Actions = append(plan.Actions, workload.RowAction{Clone: false, Src: srcRow, Dst: dst})
	}
	return plan, nil
}

// maxDonorsPerSubarray bounds the pattern rows reserved per subarray. The
// paper allocates one source row per subarray; we extend the allocator to
// recruit up to two donors, because with a single donor the per-pair
// clonability failure rate makes fallback the dominant cost for Init in
// every configuration (a deliberate deviation from the paper).
const maxDonorsPerSubarray = 2

// PlanInit builds the RowClone execution plan for initialising the
// contiguous size-byte region at dstBase with a fixed pattern. Pattern
// source rows are reserved per touched subarray (initialised by the CPU,
// outside the measured window); destination rows that cannot be cloned from
// any of their subarray's pattern rows fall back to CPU stores (§7.2
// footnote 6).
func PlanInit(a *alloc.Allocator, dstBase uint64, size int, test ClonabilityTester, flush bool) (workload.RowClonePlan, error) {
	plan := workload.RowClonePlan{
		Name:     fmt.Sprintf("rowclone-init-%d", size),
		RowBytes: a.RowBytes(),
		Flush:    flush,
		Init:     true,
	}
	donors := make(map[[2]int][]uint64) // (bank, subarray) -> pattern rows
	for _, dstRow := range a.Rows(dstBase, size) {
		var key [2]int
		key[0], key[1] = a.SubarrayOf(dstRow)

		cloned := false
		for _, src := range donors[key] {
			ok, err := test(src, dstRow)
			if err != nil {
				return plan, fmt.Errorf("techniques: clonability test: %w", err)
			}
			if ok {
				plan.Actions = append(plan.Actions, workload.RowAction{Clone: true, Src: src, Dst: dstRow})
				cloned = true
				break
			}
		}
		for !cloned && len(donors[key]) < maxDonorsPerSubarray {
			free := a.FreeRowsInSubarray(dstRow, 1)
			if len(free) == 0 {
				break
			}
			src := free[0]
			if err := a.TakeRow(src); err != nil {
				return plan, err
			}
			donors[key] = append(donors[key], src)
			plan.InitSources = append(plan.InitSources, src)
			ok, err := test(src, dstRow)
			if err != nil {
				return plan, fmt.Errorf("techniques: clonability test: %w", err)
			}
			if ok {
				plan.Actions = append(plan.Actions, workload.RowAction{Clone: true, Src: src, Dst: dstRow})
				cloned = true
			}
		}
		if !cloned {
			plan.Actions = append(plan.Actions, workload.RowAction{Clone: false, Dst: dstRow})
		}
	}
	return plan, nil
}

// FallbackFraction reports the fraction of plan actions that fell back to
// CPU operations.
func FallbackFraction(p workload.RowClonePlan) float64 {
	if len(p.Actions) == 0 {
		return 0
	}
	n := 0
	for _, act := range p.Actions {
		if !act.Clone {
			n++
		}
	}
	return float64(n) / float64(len(p.Actions))
}
