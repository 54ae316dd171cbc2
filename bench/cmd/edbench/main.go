// Command edbench runs one workload of the host-throughput benchmark and
// prints its metrics, one "name value unit" line each, followed by the
// result as one JSON object on the last line.
//
//	go run ./cmd/edbench -workload miss-chase -seed 7 -seconds 10
//	go run ./cmd/edbench -workload miss-chase -seed 7 -trace trace.json
//
// Without -trace it measures the end-to-end metrics; with -trace it runs the
// layer replays, prints the per-layer metrics and writes the spans to the
// named file as Chrome trace-event JSON. The system runs go serially from
// one goroutine, and the whole process runs on one CPU (GOMAXPROCS 1): the
// emulator's own goroutines (the op stream producer, the shard pool) take
// turns with the engine instead of handing work across CPUs, whose wake-up
// latency on a shared virtual machine made throughput swing by a third from
// run to run. The exit status is 1 when any output check failed and 2 when
// the run could not be carried out.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"easydram/bench"
)

func main() {
	runtime.GOMAXPROCS(1)
	var opt bench.Options
	flag.StringVar(&opt.Workload, "workload", "", "workload to run: "+strings.Join(bench.WorkloadNames(), ", ")+" (or all, with -update-golden)")
	flag.Uint64Var(&opt.Seed, "seed", bench.DefaultSeed, "seed the workload inputs are generated from")
	flag.Float64Var(&opt.Seconds, "seconds", 10, "how long to keep starting work")
	flag.StringVar(&opt.TraceOut, "trace", "", "run the layer replays and write their spans to this file")
	flag.StringVar(&opt.Scale, "scale", "full", "workload sizes: full or tiny")
	flag.BoolVar(&opt.UpdateGolden, "update-golden", false, "rewrite the golden output digests (testdata/golden.json, run from the bench directory) at the default seed")
	flag.Parse()

	rep, err := bench.Run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edbench:", err)
		os.Exit(2)
	}
	if rep == nil { // -update-golden
		return
	}
	if err := bench.Print(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "edbench:", err)
		os.Exit(2)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}
