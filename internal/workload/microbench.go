package workload

import "fmt"

// Microbenchmarks: the lmbench-style memory-read-latency pointer chase
// (§6, Figure 8) and the Copy/Init workloads of the RowClone case study
// (§7, Figures 10 and 11).

// LatMemRd is the lmbench lat_mem_rd pointer chase: `accesses` dependent
// line-granularity loads walking a working set of sizeBytes. One warm-up
// pass runs before the measurement window, like lmbench's steady-state
// measurement.
func LatMemRd(sizeBytes int, accesses int) Kernel {
	name := fmt.Sprintf("lat_mem_rd-%dKiB", sizeBytes/1024)
	return Kernel{Name: name, Body: func(g *Gen) {
		lines := sizeBytes / 64
		if lines < 1 {
			lines = 1
		}
		// Walk with a large prime stride so consecutive accesses do not sit
		// in the same row or set, like lmbench's shuffled chain.
		const strideLines = 97
		chase := func(n int) {
			idx := 0
			for i := 0; i < n; i++ {
				g.LoadDep(uint64(idx) * 64)
				idx = (idx + strideLines) % lines
			}
		}
		chase(lines) // warm-up pass over the whole working set
		g.Mark()
		chase(accesses)
		g.Mark()
	}}
}

// SubstrateStream is a cache-hit-heavy streaming kernel: n line-granularity
// loads sweeping a 64 MiB footprint, so almost every access is an L1/L2
// hit. core's steady-state allocation test runs it to keep the cache-hit
// path allocation-free.
func SubstrateStream(n int) Kernel {
	return Kernel{Name: "substrate-stream", Body: func(g *Gen) {
		for i := 0; i < n; i++ {
			g.Load(uint64(i%(1<<20)) * 64)
		}
	}}
}

// RowBurstDepth is the group size of SubstrateRowBurst: the number of
// same-row misses outstanding together.
const RowBurstDepth = 8

// SubstrateRowBurst is a row-locality miss kernel: n line-granularity
// loads in groups of RowBurstDepth independent loads to consecutive lines
// of one DRAM row, each group closed by a barrier. With a core whose MLP
// covers the group, all of a group's misses are outstanding together, so
// the controller's request table holds a full same-row run of row hits
// behind one activation. Lines are touched once each, so every
// access misses the caches.
func SubstrateRowBurst(n int) Kernel {
	return Kernel{Name: "substrate-rowburst", Body: func(g *Gen) {
		const span = uint64(1) << 31
		for i := 0; i < n; i++ {
			g.Load(uint64(i) * 64 % span)
			if i%RowBurstDepth == RowBurstDepth-1 {
				g.Barrier()
			}
		}
	}}
}

// CPUInit initialises n bytes at dst with 8-byte stores.
func CPUInit(dst uint64, n int) Kernel {
	return Kernel{Name: fmt.Sprintf("cpu-init-%d", n), Body: func(g *Gen) {
		for off := uint64(0); off < uint64(n); off += wordBytes {
			g.Compute(1)
			g.Store(dst + off)
		}
	}}
}

// RowAction is one row of a RowClone plan.
type RowAction struct {
	// Clone performs an in-DRAM copy from Src to Dst; otherwise the row
	// falls back to CPU loads/stores.
	Clone bool
	// Src and Dst are row-aligned physical base addresses.
	Src uint64
	Dst uint64
}

// RowClonePlan describes how a bulk copy or initialisation is executed,
// as computed by the techniques allocator (§7.1).
type RowClonePlan struct {
	// Name labels the workload.
	Name string
	// RowBytes is the DRAM row size.
	RowBytes int
	// InitSources lists row-aligned source rows the CPU must initialise
	// (and flush to DRAM) before cloning: the per-subarray pattern rows of
	// the Init workload.
	InitSources []uint64
	// Actions covers every destination row of the operation.
	Actions []RowAction
	// Flush selects the CLFLUSH setting: before each clone, dirty source
	// lines are written back and destination lines invalidated.
	Flush bool
	// Init marks an initialisation (fallback uses stores only; clones copy
	// from the subarray pattern row).
	Init bool
}

// Kernel renders the plan as an op stream. The measured region (between
// the two marks) covers the copy/init operations themselves; pattern-row
// initialisation and cache warming happen before the window, mirroring the
// paper's two settings: in the CLFLUSH setting the source rows start with
// dirty cached copies and the destination rows with clean ones, all of
// which the technique must flush or invalidate for coherence.
func (p RowClonePlan) Kernel() Kernel {
	return Kernel{Name: p.Name, Body: func(g *Gen) {
		rb := uint64(p.RowBytes)
		if p.Flush {
			for _, act := range p.Actions {
				if p.Init {
					for off := uint64(0); off < rb; off += wordBytes {
						g.Store(act.Dst + off) // dirty cached destination
					}
					continue
				}
				for off := uint64(0); off < rb; off += wordBytes {
					g.Store(act.Src + off) // dirty cached source
				}
				for off := uint64(0); off < rb; off += 64 {
					g.Load(act.Dst + off) // clean cached destination
				}
			}
		}
		for _, srcRow := range p.InitSources {
			for off := uint64(0); off < rb; off += wordBytes {
				g.Compute(1)
				g.Store(srcRow + off)
			}
			// The pattern row must reach DRAM before it can be cloned.
			for off := uint64(0); off < rb; off += 64 {
				g.Flush(srcRow + off)
			}
		}
		g.Mark()
		for _, act := range p.Actions {
			if !act.Clone {
				for off := uint64(0); off < rb; off += wordBytes {
					if !p.Init {
						g.Load(act.Src + off)
					} else {
						g.Compute(1)
					}
					g.Store(act.Dst + off)
				}
				continue
			}
			if p.Flush {
				for off := uint64(0); off < rb; off += 64 {
					if !p.Init {
						g.Flush(act.Src + off)
					}
					g.Flush(act.Dst + off)
				}
			}
			g.RowClone(act.Src, act.Dst)
		}
		g.Mark()
	}}
}

// CopyBench is the CPU-copy baseline with the same initial cache state and
// measurement window as the RowClone variant.
func CopyBench(src, dst uint64, size int, clflushSetting bool) Kernel {
	name := fmt.Sprintf("cpu-copy-%s", settingName(clflushSetting))
	return Kernel{Name: name, Body: func(g *Gen) {
		if clflushSetting {
			for off := uint64(0); off < uint64(size); off += wordBytes {
				g.Store(src + off)
			}
			for off := uint64(0); off < uint64(size); off += 64 {
				g.Load(dst + off)
			}
		}
		g.Mark()
		for off := uint64(0); off < uint64(size); off += wordBytes {
			g.Load(src + off)
			g.Store(dst + off)
		}
		g.Mark()
	}}
}

// InitBench is the CPU-init baseline with the same initial cache state and
// measurement window as the RowClone variant.
func InitBench(dst uint64, size int, clflushSetting bool) Kernel {
	name := fmt.Sprintf("cpu-init-%s", settingName(clflushSetting))
	return Kernel{Name: name, Body: func(g *Gen) {
		if clflushSetting {
			for off := uint64(0); off < uint64(size); off += wordBytes {
				g.Store(dst + off)
			}
		}
		g.Mark()
		for off := uint64(0); off < uint64(size); off += wordBytes {
			g.Compute(1)
			g.Store(dst + off)
		}
		g.Mark()
	}}
}

func settingName(clflush bool) string {
	if clflush {
		return "clflush"
	}
	return "noflush"
}
