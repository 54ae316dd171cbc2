package workload

import (
	"fmt"
	"sort"
)

// fuzzKernel is one entry of the differential fuzzer's kernel pool: a
// single-size-parameter kernel constructor plus the dimension range it may
// be instantiated over. MaxDim bounds the cost of the heavier loop nests
// (an O(n^3) kernel at dim 48 emits as many ops as an O(n^2) kernel at dim
// ~330, so the cubic entries get tighter caps).
type fuzzKernel struct {
	build  func(dim int) Kernel
	minDim int
	maxDim int
}

// fuzzPool is the kernel pool the seeded picker draws from. Every entry is
// replayable from (name, dim) alone, which is what lets a fuzz case
// serialize to JSON and reproduce byte-identically later. The pool mixes
// dense linear algebra (row-friendly), triangular/recurrence kernels
// (irregular reuse), an all-pairs cubic nest, a streaming kernel, and a
// pointer-chase microbenchmark, so fuzz cases exercise same-row hit runs,
// row conflicts, and dependent-miss chains alike.
// Dimension minimums are set so a kernel at its floor still runs a few
// thousand emulated cycles: the differential envelope judges RELATIVE
// cycle error, and a run shorter than that cannot amortize the engines'
// constant ~20-cycle startup difference, so a shorter run would turn
// measurement quantization into fake envelope breaches (the engine
// additionally floors envelope judgment on baseline cycles).
var fuzzPool = map[string]fuzzKernel{
	"gemver":         {func(d int) Kernel { return PBGemver(d) }, 20, 48},
	"gesummv":        {func(d int) Kernel { return PBGesummv(d) }, 28, 56},
	"mvt":            {func(d int) Kernel { return PBMvt(d) }, 26, 56},
	"trisolv":        {func(d int) Kernel { return PBTrisolv(d) }, 48, 96},
	"durbin":         {func(d int) Kernel { return PBDurbin(d) }, 32, 80},
	"cholesky":       {func(d int) Kernel { return PBCholesky(d) }, 20, 40},
	"lu":             {func(d int) Kernel { return PBLu(d) }, 16, 36},
	"floyd-warshall": {func(d int) Kernel { return PBFloydWarshall(d) }, 12, 28},
	"jacobi-1d":      {func(d int) Kernel { return PBJacobi1d(d, 4) }, 96, 256},
	"triad":          {func(d int) Kernel { return StreamTriad(d) }, 1024, 4096},
	"latmemrd":       {func(d int) Kernel { return LatMemRd(d<<10, 4*d) }, 16, 128},
}

// fuzzPoolNames is the pool in deterministic (sorted) order; the seeded
// picker indexes into it, so map iteration order never leaks into a draw.
var fuzzPoolNames = func() []string {
	names := make([]string, 0, len(fuzzPool))
	for n := range fuzzPool {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}()

// PickKernel maps two hash draws to a (name, dim) pair from the fuzz pool:
// sel selects the kernel, size selects a dimension uniformly inside the
// kernel's own [minDim, maxDim] range. Pure function of its inputs.
func PickKernel(sel, size uint64) (name string, dim int) {
	name = fuzzPoolNames[sel%uint64(len(fuzzPoolNames))]
	k := fuzzPool[name]
	span := uint64(k.maxDim - k.minDim + 1)
	return name, k.minDim + int(size%span)
}

// BuildKernel instantiates a pool kernel by name at the given dimension
// (clamped into the kernel's valid range), the replay path for serialized
// fuzz cases.
func BuildKernel(name string, dim int) (Kernel, error) {
	k, ok := fuzzPool[name]
	if !ok {
		return Kernel{}, fmt.Errorf("workload: unknown fuzz kernel %q", name)
	}
	if dim < k.minDim {
		dim = k.minDim
	}
	if dim > k.maxDim {
		dim = k.maxDim
	}
	return k.build(dim), nil
}

// MinKernelDim reports the smallest dimension BuildKernel accepts for name
// (the floor the fuzz minimizer shrinks toward). Unknown names report 0.
func MinKernelDim(name string) int {
	return fuzzPool[name].minDim
}
