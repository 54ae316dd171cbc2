package workload

import "fmt"

// Multiprogram traffic mixes for the multi-core emulated host: named
// compositions of the existing kernels, one per core, with every core's
// addresses relocated into its own disjoint window so the private-L1/
// shared-L2 fabric never sees a line live in two L1s (the coherence
// simplification cache.MultiHierarchy documents). The mixes are the
// workloads of the fairness sweep (internal/experiments): "streaming" is
// all row-hit-friendly bandwidth traffic, "latency" is all dependent
// pointer chases, and "mixed" pits the two against each other — the
// configuration where FR-FCFS's row-hit-first greed starves the chase and
// an interference scheduler like BLISS is supposed to help.

// MixWindowBytes is each core's private address window in a mix: large
// enough for every composed kernel's working set, small enough that 64
// cores still sit in the low address space.
const MixWindowBytes = 16 << 20

// Mix is a named multiprogram composition: KernelAt(i, n) is the workload
// core i of n runs (before windowing).
type Mix struct {
	// Name identifies the mix on command lines and in reports.
	Name string
	// Desc is a one-line description for usage listings.
	Desc string
	// KernelAt returns core i-of-n's kernel, not yet relocated.
	KernelAt func(i, n int) Kernel
}

// mixStreaming is a row-hit-heavy bandwidth kernel: one sequential sweep,
// line by line, so misses land in long same-row runs on one bank at a time
// — the traffic FR-FCFS's row-hit-first policy rewards hardest (and the
// streak BLISS's per-bank blacklist caps).
func mixStreaming() Kernel { return Strided(0, 64, 16384) }

// mixLatency is a latency-sensitive kernel: a dependent pointer chase over
// a working set larger than the shared L2 — every miss is a row-miss-prone
// DRAM round trip with no memory-level parallelism to hide it — with a
// compute gap between loads, the low-MPKI shape of a latency-critical
// program (a dense chase would itself be memory traffic heavy enough to
// perturb the schedulers it is supposed to measure).
func mixLatency() Kernel {
	const (
		sizeBytes   = 16 << 10
		accesses    = 4000
		computeGap  = 200
		strideLines = 97
	)
	return Kernel{Name: "mix-chase", Body: func(g *Gen) {
		lines := sizeBytes / 64
		idx := 0
		chase := func(n int) {
			for i := 0; i < n; i++ {
				g.LoadDep(uint64(idx) * 64)
				g.Compute(computeGap)
				idx = (idx + strideLines) % lines
			}
		}
		chase(lines / 4) // partial warm-up
		g.Mark()
		chase(accesses)
		g.Mark()
	}}
}

// Mixes returns the named multiprogram mixes, in presentation order.
func Mixes() []Mix {
	return []Mix{
		{
			Name:     "streaming",
			Desc:     "every core runs a sequential triad sweep (bandwidth-bound, row-hit heavy)",
			KernelAt: func(i, n int) Kernel { return mixStreaming() },
		},
		{
			Name:     "latency",
			Desc:     "every core runs a dependent pointer chase (latency-bound, row-miss heavy)",
			KernelAt: func(i, n int) Kernel { return mixLatency() },
		},
		{
			Name: "mixed",
			Desc: "the last core chases pointers, the rest stream (the BLISS-vs-FR-FCFS fairness scenario)",
			KernelAt: func(i, n int) Kernel {
				// Bandwidth hogs plus one latency-sensitive program: the
				// hogs' open-row runs starve each other (and delay the
				// chase) under FR-FCFS's row-hit-first greed, and BLISS's
				// streak cap is supposed to bound the damage.
				if i == n-1 {
					return mixLatency()
				}
				return mixStreaming()
			},
		},
	}
}

// MixNames returns the names of all defined mixes, in order.
func MixNames() []string {
	ms := Mixes()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// MixByName resolves a mix by name.
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (have %v)", name, MixNames())
}

// CoreStream returns core i-of-n's stream: its kernel relocated into the
// core's private window. The same stream, run alone on a single-core
// system, is the baseline of the core's slowdown.
func (m Mix) CoreStream(i, n int) Stream {
	return OffsetStream(m.KernelAt(i, n).Stream(), uint64(i)*MixWindowBytes)
}

// Streams returns the n per-core streams of the mix, in core order.
func (m Mix) Streams(n int) []Stream {
	out := make([]Stream, n)
	for i := range out {
		out[i] = m.CoreStream(i, n)
	}
	return out
}

// OffsetStream returns s with every operand address shifted up by delta
// bytes (RowClone sources included), relocating a kernel into a private
// window without touching its access pattern.
func OffsetStream(s Stream, delta uint64) Stream {
	if delta == 0 {
		return s
	}
	return &offsetStream{s: s, delta: delta}
}

type offsetStream struct {
	s     Stream
	delta uint64
}

func (o *offsetStream) Next(op *Op) bool {
	if !o.s.Next(op) {
		return false
	}
	o.relocate(op)
	return true
}

func (o *offsetStream) relocate(op *Op) {
	switch op.Kind {
	case OpLoad, OpStore, OpFlush:
		op.Addr += o.delta
	case OpRowClone:
		op.Addr += o.delta
		op.Src += o.delta
	}
}

func (o *offsetStream) Close() { o.s.Close() }
