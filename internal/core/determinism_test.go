package core

import (
	"testing"

	"easydram/internal/clock"
	"easydram/internal/workload"
)

// TestRunsAreDeterministic pins the repository's reproducibility guarantee:
// identical configuration + seed + workload produce bit-identical results,
// including every statistic. This is what makes characterization on a
// scratch system transferable to the measured system.
func TestRunsAreDeterministic(t *testing.T) {
	configs := map[string]Config{
		"scaled":   TimeScalingA57(),
		"unscaled": NoTimeScaling(),
	}
	kernel := workload.PBGemver(48)
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func() Result {
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(kernel.Stream())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.ProcCycles != b.ProcCycles || a.GlobalCycles != b.GlobalCycles {
				t.Fatalf("timing diverged: %d/%d vs %d/%d",
					a.ProcCycles, a.GlobalCycles, b.ProcCycles, b.GlobalCycles)
			}
			if a.CPU != b.CPU || a.Ctrl != b.Ctrl || a.Chip != b.Chip {
				t.Fatalf("statistics diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestGoldenCycleCounts pins cycle-exact parity with the seed engine: the
// golden numbers below were captured from the original map-scan engine
// (pre event-queue/swap-remove refactor) and must never drift. They cover
// the scaled engine, the unscaled engine, and the §6 validation pair, on a
// compute-heavy kernel and a miss-heavy pointer chase, including the
// controller decision counters (served/hits/misses/refreshes) that would
// expose any change in scheduling order.
func TestGoldenCycleCounts(t *testing.T) {
	type golden struct {
		proc, global         clock.Cycles
		served, hits, misses int64
		refreshes            int64
	}
	gemver := workload.PBGemver(48)
	latmem := workload.LatMemRd(256<<10, 2000)
	cases := []struct {
		name string
		cfg  Config
		k    workload.Kernel
		want golden
	}{
		{"scaled/gemver", TimeScalingA57(), gemver, golden{28951, 164520, 336, 321, 15, 2}},
		{"unscaled/gemver", NoTimeScaling(), gemver, golden{67384, 134768, 336, 203, 133, 167}},
		{"ts1ghz/gemver", TimeScaling1GHz(), gemver, golden{28623, 162946, 336, 320, 16, 3}},
		{"ref1ghz/gemver", Reference1GHz(), gemver, golden{28623, 2863, 336, 320, 16, 3}},
		{"scaled/latmem", TimeScalingA57(), latmem, golden{519265, 2888735, 4096, 986, 3110, 43}},
		{"unscaled/latmem", NoTimeScaling(), latmem, golden{187087, 374174, 4096, 880, 3216, 407}},
		{"ts1ghz/latmem", TimeScaling1GHz(), latmem, golden{376316, 2173909, 4096, 986, 3110, 43}},
		{"ref1ghz/latmem", Reference1GHz(), latmem, golden{376315, 37632, 4096, 986, 3110, 43}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := NewSystem(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(c.k.Stream())
			if err != nil {
				t.Fatal(err)
			}
			got := golden{res.ProcCycles, res.GlobalCycles,
				res.Ctrl.Served, res.Ctrl.RowHits, res.Ctrl.RowMisses, res.Ctrl.Refreshes}
			if got != c.want {
				t.Fatalf("cycle counts drifted from the seed engine:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestRowBurstGoldenCycleCounts pins absolute cycle counts of the MLP-8
// row-burst kernel (same-row groups of RowBurstDepth reads, each closed by
// a barrier), scaled and unscaled, alongside the in-order goldens above:
// the only golden configurations that hold a full same-row group in the
// request table at once, so the scheduler serves a run of row hits.
func TestRowBurstGoldenCycleCounts(t *testing.T) {
	type golden struct {
		proc, global clock.Cycles
		served       int64
	}
	rowBurst := workload.SubstrateRowBurst(1024)
	cases := []struct {
		name string
		cfg  Config
		want golden
	}{
		{"scaled", mlp8(TimeScalingA57()), golden{18968, 156608, 1024}},
		{"unscaled", unscaledOoO(), golden{30895, 61790, 1024}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.RefreshEnabled = false
			sys, err := NewSystem(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(rowBurst.Stream())
			if err != nil {
				t.Fatal(err)
			}
			got := golden{res.ProcCycles, res.GlobalCycles, res.Ctrl.Served}
			if got != c.want {
				t.Fatalf("golden drifted:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestSeedChangesOutcomes verifies the seed actually flows into behaviour
// that depends on the chip (RowClone success patterns).
func TestSeedChangesOutcomes(t *testing.T) {
	count := func(seed uint64) int64 {
		cfg := TimeScalingA57()
		cfg.DRAM = TechniqueDRAM()
		cfg.DRAM.RowsPerBank = 4096
		cfg.DRAM.Seed = seed
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ok := int64(0)
		for i := uint64(0); i < 64; i++ {
			base := i * 2 * 16 * 8192
			good, err := sys.TestRowClone(base, base+16*8192, 1)
			if err != nil {
				t.Fatal(err)
			}
			if good {
				ok++
			}
		}
		return ok
	}
	a, b := count(1), count(999)
	if a == 64 || a == 0 {
		t.Fatalf("seed 1 gave degenerate clonability %d/64", a)
	}
	if a == b {
		// Equal totals are possible but identical full patterns are not
		// asserted here; equal totals alone are suspicious enough to check
		// a second seed.
		if c := count(12345); c == a {
			t.Fatalf("three seeds gave identical clonability counts (%d)", a)
		}
	}
}
