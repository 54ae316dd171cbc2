package core

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/engine_digests.txt from this run")

const digestsFile = "testdata/engine_digests.txt"

// forEachParallel calls fn(i) for every i in [0, n) on GOMAXPROCS workers.
func forEachParallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// digestCase is one engine configuration and its workload streams.
type digestCase struct {
	name    string
	cfg     Config
	streams func() []workload.Stream
}

func oneStream(k workload.Kernel) func() []workload.Stream {
	return func() []workload.Stream { return []workload.Stream{k.Stream()} }
}

// streamCopyKernel copies blocks of the given size in a scattered order
// with 8-byte loads and stores, flushing each destination block and
// fencing after it: writebacks and fence phases across every channel.
func streamCopyKernel(blocks, size int) workload.Kernel {
	return workload.Kernel{Name: "stream-copy", Body: func(g *workload.Gen) {
		const dst = 1 << 30
		for i := 0; i < blocks; i++ {
			b := uint64((i * 5) % blocks * size)
			for off := uint64(0); off < uint64(size); off += 8 {
				g.Load(b + off)
				g.Store(dst + b + off)
			}
			for off := uint64(0); off < uint64(size); off += 64 {
				g.Flush(dst + b + off)
			}
			g.Barrier()
		}
	}}
}

// digestCases is the engine digest matrix: every engine loop (scaled and
// unscaled, single- and multi-core) over the four presets, with refresh on
// as the presets configure it, across topologies, schedulers and armed
// faults. The kern/ names keep a /w1 suffix from a retired host worker
// axis, so their lines match the digests pinned before it went.
func digestCases() []digestCase {
	presets := []struct {
		name string
		cfg  Config
	}{
		{"ts-a57", TimeScalingA57()},
		{"nots", NoTimeScaling()},
		{"ts-1ghz", TimeScaling1GHz()},
		{"ref-1ghz", Reference1GHz()},
	}
	// BLISS keeps per-instance state, so every case builds its own.
	scheds := []func() smc.Scheduler{
		func() smc.Scheduler { return smc.FRFCFS{} },
		func() smc.Scheduler { return smc.NewBLISS() },
	}
	var cases []digestCase
	for _, p := range presets {
		for _, nch := range []int{1, 2, 4} {
			for _, sched := range scheds {
				for _, k := range workload.ValidationSuite(workload.Tiny) {
					cfg := p.cfg
					cfg.Topology = dram.Topology{Channels: nch, Ranks: 1}
					cfg.Scheduler = sched()
					name := fmt.Sprintf("suite/%s/%dch/%s/%s", p.name, nch, cfg.Scheduler.Name(), k.Name)
					cases = append(cases, digestCase{name, cfg, oneStream(k)})
				}
			}
		}
	}
	kernels := []struct {
		kern workload.Kernel
		mlp  int
	}{
		{workload.LatMemRd(64<<10, 256), 0},
		{workload.SubstrateRowBurst(256), 8},
		{streamCopyKernel(8, 8<<10), 8},
	}
	for _, p := range presets {
		for _, k := range kernels {
			for _, nch := range []int{1, 2, 4} {
				for _, sched := range scheds {
					cfg := p.cfg
					if k.mlp > 0 && !cfg.CPU.InOrder {
						cfg.CPU.MLP = k.mlp
					}
					cfg.Topology = dram.Topology{Channels: nch, Ranks: 1}
					cfg.Scheduler = sched()
					name := fmt.Sprintf("kern/%s/%s/%dch/%s/w1", p.name, k.kern.Name, nch, cfg.Scheduler.Name())
					cases = append(cases, digestCase{name, cfg, oneStream(k.kern)})
				}
			}
			cfg := p.cfg
			cfg.Faults = faultyConfig().Faults
			cfg.Topology = dram.Topology{Channels: 2, Ranks: 1}
			cases = append(cases, digestCase{"faults/" + p.name + "/" + k.kern.Name, cfg, oneStream(k.kern)})
		}
	}
	for _, p := range presets {
		for _, mix := range workload.Mixes() {
			for _, n := range []int{2, 4} {
				for _, nch := range []int{1, 2} {
					cfg := p.cfg
					cfg.Cores = n
					cfg.Topology = dram.Topology{Channels: nch, Ranks: 1}
					cfg.Scheduler = smc.NewBLISS()
					mix := mix
					cases = append(cases, digestCase{fmt.Sprintf("multi/%s/%s/%dcore/%dch", p.name, mix.Name, n, nch), cfg,
						func() []workload.Stream { return mix.Streams(n) }})
				}
			}
		}
		mixed, err := workload.MixByName("mixed")
		if err != nil {
			panic(err)
		}
		multi := func(n, nch int, sched smc.Scheduler) Config {
			cfg := p.cfg
			cfg.Cores = n
			cfg.Topology = dram.Topology{Channels: nch, Ranks: 1}
			cfg.Scheduler = sched
			return cfg
		}
		cases = append(cases,
			digestCase{"multi/" + p.name + "/mixed/4core/2ch/fr-fcfs", multi(4, 2, smc.FRFCFS{}),
				func() []workload.Stream { return mixed.Streams(4) }},
			digestCase{"multi/" + p.name + "/mixed/3core/2ch", multi(3, 2, smc.NewBLISS()),
				func() []workload.Stream { return mixed.Streams(3) }})
		// Shared cases: every core runs the same kernel with no window
		// offset, so lines live in several L1s at once, and the kernel's
		// fabric-wide flushes must clear them from more than one.
		for _, n := range []int{2, 4} {
			n := n
			cases = append(cases, digestCase{fmt.Sprintf("multi/%s/shared/%dcore/2ch", p.name, n), multi(n, 2, smc.NewBLISS()),
				func() []workload.Stream {
					strms := make([]workload.Stream, n)
					for i := range strms {
						strms[i] = streamCopyKernel(8, 8<<10).Stream()
					}
					return strms
				}})
		}
	}
	// The time-scaled fault cases again with the processor's physical clock
	// at 40 MHz: 25,000 ps on the 10,000 ps fabric is the matrix's only
	// processor-to-FPGA ratio that is not whole, and only there does the
	// rounding of each processor jump to FPGA cycles make GlobalCycles
	// depend on the order a fence drains in.
	for _, p := range presets {
		if !p.cfg.Scaling {
			continue
		}
		for _, k := range kernels {
			cfg := p.cfg
			cfg.ProcPhys = clock.FromMHz("proc-phys-40mhz", 40)
			cfg.Faults = faultyConfig().Faults
			cfg.Topology = dram.Topology{Channels: 2, Ranks: 1}
			cases = append(cases, digestCase{"faults/" + p.name + "/phys40mhz/" + k.kern.Name, cfg, oneStream(k.kern)})
		}
	}
	return cases
}

// TestEngineDigestMatrix pins one digest per engine configuration in
// testdata/engine_digests.txt: a refactor of the engine loops must leave
// every emulated output byte-identical. Run with -update after a deliberate
// change to emulated output.
func TestEngineDigestMatrix(t *testing.T) {
	cases := digestCases()
	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	forEachParallel(len(cases), func(i int) {
		c := cases[i]
		sys, err := NewSystem(c.cfg)
		if err != nil {
			errs[i] = err
			return
		}
		res, err := sys.RunStreams(c.streams())
		if err != nil {
			errs[i] = err
			return
		}
		got[i] = res.Digest()
	})

	var out strings.Builder
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		fmt.Fprintf(&out, "%s %s\n", c.name, got[i])
	}
	if *updateDigests {
		if err := os.WriteFile(digestsFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	if len(want) != len(cases) {
		t.Errorf("%s pins %d cases, the matrix has %d", digestsFile, len(want), len(cases))
	}
	bad := 0
	for i, c := range cases {
		if w, ok := want[c.name]; !ok || w != got[i] {
			bad++
			if bad <= 20 {
				t.Errorf("%s: digest %s, want %q", c.name, got[i], w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d engine digests changed", bad, len(cases))
	}
}

// TestOutputDiff pins how Result.OutputDiff reports each kind of
// difference: none, a timeline line, or the wall part alone.
func TestOutputDiff(t *testing.T) {
	a := Result{ProcCycles: 10, WallTime: 100, GlobalCycles: 1}
	wall := a
	wall.WallTime = 200
	proc := a
	proc.ProcCycles = 11
	for _, tc := range []struct {
		b    Result
		want string
	}{
		{a, ""},
		{wall, "wall only: wall=100 global=1 vs wall=200 global=1"},
		{proc, `timeline line 1: "proc=10 emu=0 marks=[]" vs "proc=11 emu=0 marks=[]"`},
	} {
		if got := a.OutputDiff(tc.b); got != tc.want {
			t.Errorf("OutputDiff = %q, want %q", got, tc.want)
		}
	}
	if a.Timeline() != wall.Timeline() || a.Digest() == wall.Digest() {
		t.Error("the wall part must be in Digest and not in Timeline")
	}
}

// TestTimeScalingHidesControllerCost is the paper's §6 claim as an oracle:
// under time scaling, the software controller's cost and the FPGA-side
// clocks move only the wall part of a run's output. Every time-scaled case
// of the digest matrix runs as configured and under one HiddenCostMutations
// entry, rotated by case index: the timelines must be equal and the wall
// time must move. A fixed subset of the unscaled cases shows the check can
// fail: costs ×10 must move the raw software controller's ProcCycles, and
// must leave the hardware-controller reference's timeline alone.
func TestTimeScalingHidesControllerCost(t *testing.T) {
	const unscaledStride = 4
	muts := HiddenCostMutations()
	var costsX10 Mutation
	for _, m := range muts {
		if m.Name == "costs x10" {
			costsX10 = m
		}
	}
	if costsX10.Apply == nil {
		t.Fatal(`HiddenCostMutations has no "costs x10"`)
	}
	// run builds a fresh system with a fresh scheduler: BLISS is stateful.
	run := func(c digestCase, mutate func(*Config)) (Result, error) {
		cfg := c.cfg
		sched, err := smc.NewScheduler(cfg.Scheduler.Name())
		if err != nil {
			return Result{}, err
		}
		cfg.Scheduler = sched
		if mutate != nil {
			mutate(&cfg)
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			return Result{}, err
		}
		return sys.RunStreams(c.streams())
	}
	cases := digestCases()
	errs := make([]error, len(cases))
	checked := make([]bool, len(cases))
	forEachParallel(len(cases), func(i int) {
		c := cases[i]
		m := muts[i%len(muts)]
		if !c.cfg.Scaling {
			if i%unscaledStride != 0 {
				return
			}
			m = costsX10
		}
		checked[i] = true
		base, err := run(c, nil)
		if err != nil {
			errs[i] = err
			return
		}
		got, err := run(c, m.Apply)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", m.Name, err)
			return
		}
		switch {
		case c.cfg.Scaling || c.cfg.HardwareMC:
			if base.Timeline() != got.Timeline() {
				errs[i] = fmt.Errorf("%s changed the timeline: %s", m.Name, base.OutputDiff(got))
			} else if c.cfg.Scaling && base.WallTime == got.WallTime {
				errs[i] = fmt.Errorf("%s left wall time at %d ps", m.Name, base.WallTime)
			}
		case base.ProcCycles == got.ProcCycles:
			errs[i] = fmt.Errorf("%s left the unscaled software controller's ProcCycles at %d", m.Name, base.ProcCycles)
		}
	})
	n, bad := 0, 0
	for i, c := range cases {
		if checked[i] {
			n++
		}
		if errs[i] != nil {
			bad++
			if bad <= 20 {
				t.Errorf("%s: %v", c.name, errs[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d checked cases failed", bad, n)
	}
}
