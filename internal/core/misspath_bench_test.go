package core

import (
	"math/rand/v2"
	"testing"

	"easydram/internal/workload"
)

// BenchmarkMissPath times the per-request miss path (cpu → core → smc →
// tile → bender → dram) on TimeScalingA57: a seeded dependent chase over
// 1 GiB, against a 512 KiB L2, so every load misses both levels and
// waits for the one before it. b.N is the number of loads. They run in
// segments on one system, each segment's ops built with the timer
// stopped, and the benchmark reports host ns per served request.
//
// Profile the path with
//
//	go test ./internal/core -run '^$' -bench MissPath -benchtime 20000000x -cpuprofile miss.prof -outputdir /tmp
func BenchmarkMissPath(b *testing.B) {
	const (
		spanLines = 1 << 24 // 1 GiB of 64-byte lines
		segment   = 1 << 14
	)
	sys, err := NewSystem(TimeScalingA57())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	ops := make([]workload.Op, segment)
	var served int64
	b.ResetTimer()
	b.StopTimer()
	for left := b.N; left > 0; left -= segment {
		n := min(left, segment)
		for i := range ops[:n] {
			ops[i] = workload.Op{Kind: workload.OpLoad, Addr: rng.Uint64N(spanLines) * 64, Dep: true}
		}
		b.StartTimer()
		res, err := sys.Run(workload.NewSliceStream(ops[:n]))
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		// Ctrl counters accumulate over a system's runs; the core's are
		// per run.
		served += res.CPU.MemReads + res.CPU.MemFills + res.CPU.Writebacks + res.CPU.Prefetches
	}
	if served > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(served), "ns/req")
	}
}
