package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/engine_digests.txt from this run")

const digestsFile = "testdata/engine_digests.txt"

// resultDigest hashes an explicit list of Result's emulated fields into a
// 16-hex SHA-256 prefix. The list is explicit (not json.Marshal(Result)) so
// removing an always-zero counter does not change any digest.
func resultDigest(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc=%d emu=%d wall=%d global=%d marks=%v\n",
		r.ProcCycles, r.EmulatedTime, r.WallTime, r.GlobalCycles, r.Marks)
	fmt.Fprintf(&b, "cpu=%+v\nl1=%+v\nl2=%+v\nchip=%+v\ntile=%+v\n", r.CPU, r.L1, r.L2, r.Chip, r.Tile)
	c := r.Ctrl
	fmt.Fprintf(&b, "ctrl=%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		c.Served, c.Reads, c.Writes, c.RowClones, c.BitwiseOps, c.Profiles,
		c.ProfileRows, c.ProfiledLines, c.Refreshes, c.RowHits, c.RowMisses,
		c.RankSwitches, c.Retries, c.RetryGiveUps, c.QuarantinedRows,
		c.RemappedAccesses, c.MitigationRefreshes)
	for i, pc := range r.PerCore {
		fmt.Fprintf(&b, "core%d=%d %v %+v %+v\n", i, pc.ProcCycles, pc.Marks, pc.CPU, pc.L1)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
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
// as the presets configure it, across topologies, schedulers, shard worker
// counts and armed faults.
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
					cfg.ShardWorkers = 1
					if nch == 4 {
						cfg.ShardWorkers = 4
					}
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
					for _, workers := range []int{1, 4} {
						cfg := p.cfg
						if k.mlp > 0 && !cfg.CPU.InOrder {
							cfg.CPU.MLP = k.mlp
						}
						cfg.Topology = dram.Topology{Channels: nch, Ranks: 1}
						cfg.Scheduler = sched()
						cfg.ShardWorkers = workers
						name := fmt.Sprintf("kern/%s/%s/%dch/%s/w%d", p.name, k.kern.Name, nch, cfg.Scheduler.Name(), workers)
						cases = append(cases, digestCase{name, cfg, oneStream(k.kern)})
					}
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
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cases[i]
				sys, err := NewSystem(c.cfg)
				if err != nil {
					errs[i] = err
					continue
				}
				res, err := sys.RunStreams(c.streams())
				if err != nil {
					errs[i] = err
					continue
				}
				got[i] = resultDigest(res)
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

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
