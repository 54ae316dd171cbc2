package smc

import (
	"testing"

	"easydram/internal/workload"
)

// TestFaultFreeServiceLoopZeroAllocs pins that the SMC service loop with
// every fault seam armed and no fault firing (disturb counting,
// verify-and-retry reads) allocates nothing once its buffers have warmed.
func TestFaultFreeServiceLoopZeroAllocs(t *testing.T) {
	h, err := NewFaultFreeBenchHarness()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the request slab, tile FIFOs and chip tables.
	if err := h.ServeRowGroups(50000, workload.RowBurstDepth); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := h.ServeRowGroups(4096, workload.RowBurstDepth); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fault-free service loop: %v allocs per 4096 requests, want 0", allocs)
	}
}

// TestMultiChannelServiceLoop pins the 4-channel fan-out through per-channel
// controllers: no allocation once warm, and consecutive lines spread so
// evenly over the line-interleaved channels that the modeled service
// overlap (sum of per-channel occupancy over its maximum) is exactly 4.
func TestMultiChannelServiceLoop(t *testing.T) {
	const channels = 4
	h, err := NewMultiBenchHarness(channels)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ServeInterleaved(50000, 2*channels); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := h.ServeInterleaved(4096, 2*channels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("multi-channel service loop: %v allocs per 4096 requests, want 0", allocs)
	}
	if got := h.Overlap(); got != channels {
		t.Fatalf("service overlap %v on %d channels, want exactly %d", got, channels, channels)
	}
}
