package workload

import (
	"testing"
)

// kernelProfile summarises an op stream for sanity checks.
type kernelProfile struct {
	loads, stores, computeN, total int64
	maxAddr                        uint64
}

func profile(t *testing.T, k Kernel) kernelProfile {
	t.Helper()
	s := k.Stream()
	defer s.Close()
	var p kernelProfile
	var op Op
	for s.Next(&op) {
		p.total++
		switch op.Kind {
		case OpLoad:
			p.loads++
			if op.Addr > p.maxAddr {
				p.maxAddr = op.Addr
			}
		case OpStore:
			p.stores++
			if op.Addr > p.maxAddr {
				p.maxAddr = op.Addr
			}
		case OpCompute:
			p.computeN += op.N
		}
	}
	return p
}

// TestValidationSuiteComplete pins the paper's kernel count: 28 PolyBench
// benchmarks (§6).
func TestValidationSuiteComplete(t *testing.T) {
	suite := ValidationSuite(Tiny)
	if len(suite) != 28 {
		t.Fatalf("validation suite has %d kernels, want 28", len(suite))
	}
	seen := map[string]bool{}
	for _, k := range suite {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
	}
}

// TestFig13SuiteOrder pins the 11 workloads of Figure 13, in the paper's
// order.
func TestFig13SuiteOrder(t *testing.T) {
	want := []string{
		"gemver", "mvt", "gesummv", "syrk", "symm", "correlation",
		"covariance", "trisolv", "gramschmidt", "gemm", "durbin",
	}
	suite := Fig13Suite(Tiny)
	if len(suite) != len(want) {
		t.Fatalf("fig13 suite has %d kernels", len(suite))
	}
	for i, k := range suite {
		if k.Name != want[i] {
			t.Fatalf("kernel %d = %q, want %q", i, k.Name, want[i])
		}
	}
}

// TestEveryKernelEmitsWork runs every kernel at Tiny size and checks basic
// structural properties: reads and writes exist and the stream terminates.
func TestEveryKernelEmitsWork(t *testing.T) {
	for _, k := range ValidationSuite(Tiny) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			p := profile(t, k)
			if p.total == 0 || p.loads == 0 {
				t.Fatalf("kernel emitted no work: %+v", p)
			}
			if p.stores == 0 {
				t.Fatalf("kernel emitted no stores: %+v", p)
			}
		})
	}
}

// TestKernelsDeterministic verifies a kernel emits the identical stream on
// every run (required for reproducible experiments).
func TestKernelsDeterministic(t *testing.T) {
	k := PBGemver(24)
	a := collect(t, k)
	b := collect(t, k)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSizeClassesScale checks Eval emits more work than Tiny.
func TestSizeClassesScale(t *testing.T) {
	tiny := profile(t, PBGemm(8, 8, 8))
	big := profile(t, PBGemm(24, 24, 24))
	if big.total <= tiny.total {
		t.Fatalf("bigger gemm emitted less work")
	}
}

// TestGemmOpCount checks gemm's loop-nest arithmetic: the k-loop emits
// 3 memory ops per iteration plus the beta pass.
func TestGemmOpCount(t *testing.T) {
	const n = 8
	p := profile(t, PBGemm(n, n, n))
	// beta pass (C) + hoisted A per (i,k) + (B,C) per inner iteration.
	wantLoads := int64(n*n + n*n + 2*n*n*n)
	if p.loads != wantLoads {
		t.Fatalf("gemm loads = %d, want %d", p.loads, wantLoads)
	}
	wantStores := int64(n*n + n*n*n)
	if p.stores != wantStores {
		t.Fatalf("gemm stores = %d, want %d", p.stores, wantStores)
	}
}

// TestDurbinIsCacheResident pins the paper's observation that durbin is the
// least memory-intensive workload: its footprint fits in the 512 KiB L2.
func TestDurbinIsCacheResident(t *testing.T) {
	p := profile(t, PBDurbin(256))
	if p.maxAddr >= 512<<10 {
		t.Fatalf("durbin footprint %d bytes exceeds L2", p.maxAddr)
	}
}

// TestStencilsTouchBothBuffers checks double-buffered stencils alternate.
func TestStencilsTouchBothBuffers(t *testing.T) {
	p := profile(t, PBJacobi2d(16, 2))
	// two n*n grids -> footprint beyond one grid.
	if p.maxAddr < 16*16*8 {
		t.Fatalf("jacobi-2d never touched the second buffer")
	}
}

// TestExtraKernels covers the two PolyBench kernels outside the paper's
// 28-benchmark validation set.
func TestExtraKernels(t *testing.T) {
	for _, k := range []Kernel{PBLudcmp(16), PBNussinov(16)} {
		p := profile(t, k)
		if p.loads == 0 || p.stores == 0 {
			t.Fatalf("%s emitted no work: %+v", k.Name, p)
		}
	}
}

// BenchmarkKernelStream drains a Small PolyBench gemm stream and reports
// host nanoseconds per op, producer emission and consumer Next together:
// the per-op cost every emulated run pays before the core model sees an op.
func BenchmarkKernelStream(b *testing.B) {
	var k Kernel
	for _, kk := range Fig13Suite(Small) {
		if kk.Name == "gemm" {
			k = kk
		}
	}
	if k.Body == nil {
		b.Fatalf("no gemm kernel in Fig13Suite")
	}
	b.ReportAllocs()
	var ops int64
	for i := 0; i < b.N; i++ {
		s := k.Stream()
		var op Op
		for s.Next(&op) {
			ops++
		}
		s.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/emitted-op")
}
