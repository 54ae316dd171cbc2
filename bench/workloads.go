package bench

import (
	"fmt"
	"runtime"
	"slices"

	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// A workload is a sequence of units. Unit k takes its inputs from the seed
// and k mod period, builds fresh systems, runs them, and checks their
// outputs; the program under test only ever receives the generated streams.
// A measured run repeats units until its time is up, ending only on a
// multiple of passUnits so that a heterogeneous workload (the 28 PolyBench
// kernels) always measures whole passes.
type workloadDef struct {
	name      string
	period    int
	passUnits int
	unit      func(h *harness, k int)
}

// scale sizes the workloads. "full" is the benchmark; "tiny" keeps every
// workload to a fraction of a second for the package test. At full scale a
// miss-chase, stream-write-4ch or mixed-4core unit takes 50-100 ms on one
// CPU of the reference host, as a PolyBench kernel pair does: short enough
// that the reference loop timed after a unit meets the host at the speed
// the unit met it.
type scale struct {
	pbSize     workload.SizeClass
	pbKernels  int // PolyBench kernels per pass: a prefix of the validation suite
	chaseLoads int // dependent loads per miss-chase unit
	copyBlocks int // 64 KiB blocks per stream-write-4ch unit
	hogLines   int // lines each mixed-4core hog streams from the start of its 16 MiB window
	spanRows   int // DRAM rows per characterize span
	probeLoads int // reduced-tRCD loads after each characterize profile
}

var scales = map[string]scale{
	"full": {
		pbSize: workload.Small, pbKernels: 28,
		chaseLoads: 1 << 17, copyBlocks: 32, hogLines: 2 << 20 / 64,
		spanRows: 8192, probeLoads: 1 << 17,
	},
	"tiny": {
		pbSize: workload.Tiny, pbKernels: 4,
		chaseLoads: 4096, copyBlocks: 4, hogLines: 4096,
		spanRows: 64, probeLoads: 2048,
	},
}

// Seed streams: each input family draws from its own stream so that
// changing one family's draws never perturbs another's.
const (
	streamPolybench = iota + 1
	streamChase
	streamCopy
	streamMixed
	streamProbe
	streamDRAM
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// draw derives an independent 64-bit value for (seed, stream, k).
func draw(seed uint64, stream, k int) uint64 {
	return mix64(seed ^ mix64(uint64(stream)<<32|uint64(uint32(k))))
}

// perm returns a seeded permutation of [0, n) (Fisher-Yates).
func perm(n int, r uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		r = mix64(r)
		j := int(r % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func oneStream(k workload.Kernel) func() []workload.Stream {
	return func() []workload.Stream { return []workload.Stream{k.Stream()} }
}

func workloads(seed uint64, sc scale) []workloadDef {
	return []workloadDef{
		polybenchPair(seed, sc),
		missChase(seed, sc),
		streamWrite4ch(seed, sc),
		mixed4core(seed, sc),
		characterize(seed, sc),
	}
}

// polybenchPair runs each §6 validation kernel on a fresh time-scaled
// system and a fresh reference system and checks the time-scaling error.
func polybenchPair(seed uint64, sc scale) workloadDef {
	kernels := workload.ValidationSuite(sc.pbSize)[:sc.pbKernels]
	order := perm(len(kernels), draw(seed, streamPolybench, 0))
	dramSeed := draw(seed, streamDRAM, 0)
	return workloadDef{
		name:      "polybench-pair",
		period:    len(kernels),
		passUnits: len(kernels),
		unit: func(h *harness, k int) {
			kern := kernels[order[k]]
			cfg := func(base func() core.Config) func() core.Config {
				return func() core.Config {
					c := base()
					c.DRAM.Seed = dramSeed
					return c
				}
			}
			ts, tsOp := h.run(runSpec{name: kern.Name + "/scaled", input: kern.Name,
				config: cfg(core.TimeScaling1GHz), streams: oneStream(kern)})
			ref, refOp := h.run(runSpec{name: kern.Name + "/reference", input: kern.Name,
				config: cfg(core.Reference1GHz), streams: oneStream(kern)})
			if tsOp == nil || refOp == nil {
				return
			}
			errPct := 100 * float64(ts.ProcCycles-ref.ProcCycles) / float64(ref.ProcCycles)
			if errPct < 0 {
				errPct = -errPct
			}
			h.tsPairs++
			h.tsMaxErr = max(h.tsMaxErr, errPct)
			if errPct >= 1 {
				h.fail(refOp, "time-scaling error %.4f%% >= 1%%", errPct)
			}
		},
	}
}

// chaseLines is the miss-chase span in cache lines: 1 GiB, against a
// 512 KiB L2, so every load misses.
const chaseLines = 1 << 24

// lcg is a full-period linear congruential generator modulo chaseLines
// (Hull-Dobell: c odd, a = 1 mod 4), so a chase visits every line of the
// span once per period.
type lcg struct{ a, c uint64 }

func (l lcg) next(x uint64) uint64 { return (l.a*x + l.c) & (chaseLines - 1) }

// jump advances x by n steps in O(log n) by squaring the affine map.
func (l lcg) jump(x, n uint64) uint64 {
	a, c := l.a, l.c
	ra, rc := uint64(1), uint64(0)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			ra, rc = a*ra&(chaseLines-1), (a*rc+c)&(chaseLines-1)
		}
		a, c = a*a&(chaseLines-1), (a*c+c)&(chaseLines-1)
	}
	return (ra*x + rc) & (chaseLines - 1)
}

// scramble24 is a bijection on 24-bit line numbers. A power-of-two LCG's
// low bits cycle with short periods; the scramble keeps the permutation
// while spreading consecutive draws over banks, rows and columns.
func scramble24(x uint64) uint64 {
	x ^= x >> 12
	x = x * 0x9e3779 & (chaseLines - 1)
	return x ^ x>>11
}

// missChase runs consecutive segments of one seeded chase through the
// 1 GiB span, each on a fresh TimeScalingA57 system.
func missChase(seed uint64, sc scale) workloadDef {
	gen := lcg{a: draw(seed, streamChase, 0)&^7 | 5, c: draw(seed, streamChase, 1) | 1}
	x0 := draw(seed, streamChase, 2) & (chaseLines - 1)
	dramSeed := draw(seed, streamDRAM, 0)
	return workloadDef{
		name:      "miss-chase",
		period:    32,
		passUnits: 1,
		unit: func(h *harness, k int) {
			n := sc.chaseLoads
			start := gen.jump(x0, uint64(k)*uint64(n))
			kern := workload.Kernel{Name: "miss-chase", Body: func(g *workload.Gen) {
				x := start
				for i := 0; i < n; i++ {
					g.LoadDep(scramble24(x) * 64)
					x = gen.next(x)
				}
			}}
			h.run(runSpec{name: fmt.Sprintf("seg%02d", k), input: "chase", streams: oneStream(kern),
				config: func() core.Config {
					c := core.TimeScalingA57()
					c.DRAM.Seed = dramSeed
					return c
				}})
		},
	}
}

// copyBlock is the stream-write-4ch copy granule.
const copyBlock = 64 << 10

// streamWrite4ch copies seeded-order 64 KiB blocks with 8-byte loads and
// stores, flushing each destination block and fencing after it, on four
// line-interleaved channels. Its shard pool has the size the default gives
// a process that may use every CPU, so the fence and drain phases go
// through the shard runner even though edbench runs on one CPU.
func streamWrite4ch(seed uint64, sc scale) workloadDef {
	dramSeed := draw(seed, streamDRAM, 0)
	const dstBase = 1 << 30
	return workloadDef{
		name:      "stream-write-4ch",
		period:    32,
		passUnits: 1,
		unit: func(h *harness, k int) {
			order := perm(sc.copyBlocks, draw(seed, streamCopy, k))
			kern := workload.Kernel{Name: "stream-copy", Body: func(g *workload.Gen) {
				for _, b := range order {
					src, dst := uint64(b)*copyBlock, dstBase+uint64(b)*copyBlock
					for off := uint64(0); off < copyBlock; off += 8 {
						g.Load(src + off)
						g.Store(dst + off)
					}
					for off := uint64(0); off < copyBlock; off += 64 {
						g.Flush(dst + off)
					}
					g.Barrier()
				}
			}}
			h.run(runSpec{name: fmt.Sprintf("copy%02d", k), input: "copy", streams: oneStream(kern),
				config: func() core.Config {
					c := core.TimeScalingA57()
					c.DRAM.Seed = dramSeed
					c.Topology = dram.Topology{Channels: 4, Ranks: 1, Interleave: dram.InterleaveLine}
					c.CPU.MLP = 8
					c.ShardWorkers = runtime.NumCPU()
					return c
				}})
		},
	}
}

// mixed4core runs three strided hogs and one dependent chase on four cores
// under BLISS. Unit k moves the chase to core (first+k) mod 4, with first
// drawn from the seed, so a run covers the chase on each core about equally.
func mixed4core(seed uint64, sc scale) workloadDef {
	const cores = 4
	chase, err := workload.MixByName("latency")
	if err != nil {
		panic(err) // the mix is defined in the workload package
	}
	dramSeed := draw(seed, streamDRAM, 0)
	first := int(draw(seed, streamMixed, 0) % cores)
	return workloadDef{
		name:      "mixed-4core",
		period:    32,
		passUnits: 1,
		unit: func(h *harness, k int) {
			chaser := (first + k) % cores
			streams := func() []workload.Stream {
				out := make([]workload.Stream, cores)
				for c := range out {
					kern := workload.Strided(0, 64, sc.hogLines)
					if c == chaser {
						kern = chase.KernelAt(0, 1)
					}
					out[c] = workload.OffsetStream(kern.Stream(), uint64(c)*workload.MixWindowBytes)
				}
				return out
			}
			h.run(runSpec{name: fmt.Sprintf("run%02d", k), input: "mix", streams: streams,
				config: func() core.Config {
					c := core.TimeScalingA57()
					c.DRAM.Seed = dramSeed
					c.Cores = cores
					c.Scheduler = smc.NewBLISS()
					return c
				}})
		},
	}
}

// characterize profiles one span of rows for weak rows at the reduced tRCD
// on a fresh data-tracking system (variation seed = seed+k), checks the weak
// set against the variation model, and then runs seeded loads over the span
// with the reduced-tRCD hook built from the profile (§8.2).
func characterize(seed uint64, sc scale) workloadDef {
	return workloadDef{
		name:      "characterize",
		period:    32,
		passUnits: 1,
		unit: func(h *harness, k int) {
			silicon := seed + uint64(k)
			profCfg := core.TimeScalingA57()
			profCfg.DRAM = core.TechniqueDRAM()
			profCfg.DRAM.Seed = silicon
			sys, err := h.newSystem(profCfg)
			if err != nil {
				h.fail(h.newOp("span/"+fmt.Sprint(k)), "%v", err)
				return
			}
			m := sys.Mapper()
			rowBytes := uint64(m.RowBytes())
			start := uint64(k) * uint64(sc.spanRows) * rowBytes
			end := start + uint64(sc.spanRows)*rowBytes
			weak, op := h.profile(fmt.Sprintf("span%02d", k), sys, start, end)
			if op == nil {
				return
			}
			vm := sys.Chip().Variation()
			var want []uint64
			for key := start; key < end; key += rowBytes {
				if a := m.Map(key); !vm.Strong(a.Bank, a.Row) {
					want = append(want, key)
				}
			}
			if !slices.Equal(weak, want) {
				h.fail(op, "profiled %d weak rows, variation model has %d", len(weak), len(want))
			}
			if h.traced {
				h.replayStripes(profCfg, start, end, len(weak), op)
			}
			filter, err := techniques.BuildWeakRowFilter(weak, 0.01, silicon)
			if err != nil {
				h.fail(op, "%v", err)
				return
			}
			provider := techniques.TRCDProvider(filter, m, start, end, techniques.ReducedTRCD)
			probeSeed := draw(seed, streamProbe, k)
			lines := uint64(sc.spanRows) * rowBytes / 64
			kern := workload.Kernel{Name: "trcd-probe", Body: func(g *workload.Gen) {
				r := probeSeed
				for i := 0; i < sc.probeLoads; i++ {
					r = mix64(r)
					g.Load(start + r%lines*64)
				}
			}}
			res, runOp := h.run(runSpec{name: fmt.Sprintf("span%02d/run", k), input: "probe", streams: oneStream(kern),
				config: func() core.Config {
					c := core.TimeScalingA57()
					c.DRAM.Seed = silicon
					c.TRCD = provider
					return c
				}})
			if runOp != nil && res.Chip.CorruptedReads != 0 {
				h.fail(runOp, "%d corrupted reads under the profiled reduced tRCD", res.Chip.CorruptedReads)
			}
		},
	}
}
