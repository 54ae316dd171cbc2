// Command customscheduler shows why a software-defined memory controller
// matters: a new scheduling policy is a few dozen lines of Go against the
// easydram.Scheduler interface, swapped in with one option. It defines
// WritesDrain — a policy that drains the writeback backlog before serving
// reads once the backlog crosses a threshold (a simplified write-drain
// mode, the opposite bet to FR-FCFS's read priority) — and compares it
// against the built-in FR-FCFS and FCFS policies on a workload with heavy
// row-buffer locality.
package main

import (
	"fmt"
	"log"

	"easydram"
)

// WritesDrain serves reads first (oldest row hit, then oldest) until the
// buffered write backlog reaches Threshold; then it drains writes the same
// way until none remain. Real controllers batch writes like this to
// amortise bus turnarounds.
type WritesDrain struct {
	// Threshold is the write backlog that triggers drain mode.
	Threshold int
	draining  bool
}

// Name implements easydram.Scheduler.
func (s *WritesDrain) Name() string { return "writes-drain" }

// pickClass returns the oldest entry of the wanted class (reads or
// writes/writebacks), preferring row hits; -1 if the class is empty.
func pickClass(table []easydram.SchedEntry, openRows []int, writes bool) int {
	hit, oldest := -1, -1
	for i := range table {
		e := &table[i]
		if !e.IsAccess() || (e.Kind != easydram.ReqRead) != writes {
			continue
		}
		if oldest < 0 || e.Seq < table[oldest].Seq {
			oldest = i
		}
		if openRows[e.Addr.Bank] == e.Addr.Row && (hit < 0 || e.Seq < table[hit].Seq) {
			hit = i
		}
	}
	if hit >= 0 {
		return hit
	}
	return oldest
}

// Pick implements easydram.Scheduler.
func (s *WritesDrain) Pick(table []easydram.SchedEntry, openRows []int) int {
	writes := 0
	for i := range table {
		if table[i].IsAccess() && table[i].Kind != easydram.ReqRead {
			writes++
		}
	}
	if writes >= s.Threshold {
		s.draining = true
	}
	if writes == 0 {
		s.draining = false
	}
	if s.draining {
		if w := pickClass(table, openRows, true); w >= 0 {
			return w
		}
	}
	if r := pickClass(table, openRows, false); r >= 0 {
		return r
	}
	if w := pickClass(table, openRows, true); w >= 0 {
		return w
	}
	// Only technique requests remain: oldest first.
	oldest := 0
	for i := range table {
		if table[i].Seq < table[oldest].Seq {
			oldest = i
		}
	}
	return oldest
}

// readsVsWrites mixes a latency-critical dependent-load chain with store
// bursts whose evictions flood the controller with writebacks — the traffic
// where read-priority and write-drain policies pull apart.
func readsVsWrites() easydram.Kernel {
	return easydram.NewKernel("reads-vs-writes", func(g *easydram.Gen) {
		const iters = 2048
		loadBase := uint64(0)
		storeBase := uint64(256 << 20)
		for i := 0; i < iters; i++ {
			// A store burst that thrashes the caches and generates dirty
			// evictions (posted writebacks).
			for j := 0; j < 8; j++ {
				g.Store(storeBase + uint64(i*8+j)*4096)
			}
			// The latency-critical pointer chase.
			g.LoadDep(loadBase + uint64(i)*8192)
		}
	})
}

func main() {
	schedulers := []struct {
		name string
		opt  easydram.Option
	}{
		{"fr-fcfs", easydram.WithScheduler("fr-fcfs")},
		{"fcfs", easydram.WithScheduler("fcfs")},
		{"writes-drain", easydram.WithCustomScheduler(&WritesDrain{Threshold: 12})},
	}
	for _, s := range schedulers {
		sys, err := easydram.NewSystem(easydram.TimeScaled(), s.opt)
		if err != nil {
			log.Fatalf("customscheduler: %v", err)
		}
		res, err := sys.Run(readsVsWrites())
		if err != nil {
			log.Fatalf("customscheduler: %v", err)
		}
		fmt.Printf("%-12s %8d cycles  row hits %5d  row misses %5d\n",
			s.name, res.ProcCycles, res.Ctrl.RowHits, res.Ctrl.RowMisses)
	}
	fmt.Println("FR-FCFS reorders requests to exploit open rows; FCFS serves them in arrival order;")
	fmt.Println("WritesDrain batches the writeback backlog — a custom policy in ~70 lines.")
}
