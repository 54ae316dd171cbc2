package core

import (
	"testing"

	"easydram/internal/workload"
)

// TestServiceLoopSteadyStateAllocs guards the zero-alloc service loop: once
// a system's buffers have warmed, running more operations must not allocate
// per operation. Engine event queues, the controller request table, Env
// response/readback slices, tile FIFOs, Bender's readback buffer, and the
// timing checker's violation buffer are all reused, so the allocation count
// of a run is (nearly) independent of its length. The test measures two
// runs that differ by thousands of memory operations and bounds the
// marginal allocations per operation close to zero.
func TestServiceLoopSteadyStateAllocs(t *testing.T) {
	// Two inputs: dependent misses striding 128 KiB through 2 GiB (the full
	// engine/controller/DRAM service loop), and workload.SubstrateStream's
	// line-granularity sweep, whose warmed runs hit L2 on every access and
	// feed ops through the kernel's slab stream.
	misses := func(n int) workload.Stream {
		const span = uint64(1) << 31
		ops := make([]workload.Op, n)
		for i := range ops {
			ops[i] = workload.Op{Kind: workload.OpLoad, Addr: uint64(i) * 131072 % span, Dep: true}
		}
		return workload.NewSliceStream(ops)
	}
	hits := func(n int) workload.Stream { return workload.SubstrateStream(n).Stream() }
	configs := []struct {
		name string
		cfg  Config
	}{
		{"scaled", TimeScalingA57()},
		{"unscaled", NoTimeScaling()},
	}
	inputs := []struct {
		name   string
		stream func(n int) workload.Stream
	}{
		{"misses", misses},
		{"cache-hits", hits},
	}
	const small, large = 1024, 8192
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					sys, err := NewSystem(c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					measure := func(n int) float64 {
						return testing.AllocsPerRun(3, func() {
							if _, err := sys.Run(in.stream(n)); err != nil {
								t.Fatal(err)
							}
						})
					}
					measure(large) // warm caches and buffer capacities
					a := measure(small)
					b := measure(large)
					marginal := (b - a) / float64(large-small)
					if marginal > 0.01 {
						t.Fatalf("service loop allocates in steady state: %.0f allocs @ %d ops vs %.0f @ %d (%.4f allocs/op)",
							a, small, b, large, marginal)
					}
				})
			}
		})
	}
}
