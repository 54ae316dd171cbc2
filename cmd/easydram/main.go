// Command easydram runs the paper's experiments and prints their tables
// and series.
//
// Usage:
//
//	easydram [-quick] [-seed N] [-channels N] [-ranks N] [-cores N]
//	         [-faults] [-mitigation P] [-save-profile DIR]
//	         [-load-profile DIR] [-checkpoint FILE] [-v] <experiment>
//
// where experiment is a name from experiments.Catalog (table1, fig2,
// validation, fig8, ..., difffuzz) or all. The report text goes to stdout
// and each headline metric to stderr as "easydram: <metric> = <value>".
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"easydram/internal/experiments"
	"easydram/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "use unit-test-scale parameters")
	seed := flag.Uint64("seed", 1, "DRAM variation seed. It does not reach the validation presets: validation prints the same output for every seed")
	channels := flag.Int("channels", 0, "memory channels (power of two; 0 = the paper's single channel). Topology is a workload axis: multi-channel runs overlap service and change emulated timing")
	ranks := flag.Int("ranks", 0, "ranks per channel bus (power of two; 0 = the paper's single rank; rank switches pay the tRTRS turnaround)")
	cores := flag.Int("cores", 0, "emulated core count the fairness sweep tops out at (0 = the default {2, 4} grid); a modeled-system axis — more cores means more contention")
	faults := flag.Bool("faults", false, "arm default fault injection (chip disturb, transient/stuck-at reads, host-link failures) on every run; deterministic in -seed")
	mitigation := flag.String("mitigation", "", "RowHammer mitigation policy on every run: para or trr (empty = none)")
	verbose := flag.Bool("v", false, "print per-run health counters to stderr: DRAM timing/rank-switch violations, retries, quarantined/remapped rows, mitigation refreshes, link faults")
	saveProfile := flag.String("save-profile", "", "directory to persist characterization profiles to (atomic writes; profiling experiments write one file per workload)")
	loadProfile := flag.String("load-profile", "", "characterization store directory to warm-start from; missing/corrupt/stale profiles degrade to fresh characterization")
	checkpoint := flag.String("checkpoint", "", "file the snapshot experiment writes its mid-run system checkpoint to")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: easydram [-quick] [-seed N] [-channels N] [-ranks N] [-cores N] [-faults] [-mitigation P] [-save-profile DIR] [-load-profile DIR] [-checkpoint FILE] [-v] <%s>\n", experimentNames())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
		opt.KernelSize = workload.Small
	}
	opt.Seed = *seed
	opt.Channels = *channels
	opt.Ranks = *ranks
	opt.Cores = *cores
	opt.Faults = *faults
	opt.Mitigation = *mitigation
	opt.Verbose = *verbose
	opt.ProfileSave = *saveProfile
	opt.ProfileLoad = *loadProfile
	opt.CheckpointPath = *checkpoint

	if err := run(flag.Arg(0), opt); err != nil {
		fmt.Fprintf(os.Stderr, "easydram: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, opt experiments.Options) error {
	catalog := experiments.Catalog()
	if name == "all" {
		for _, e := range catalog {
			fmt.Printf("==== %s ====\n", e.Name)
			if err := runOne(e, opt); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	for _, e := range catalog {
		if e.Name == name {
			return runOne(e, opt)
		}
	}
	return fmt.Errorf("unknown experiment %q (want one of: %s)", name, experimentNames())
}

// runOne runs e, prints its report text to stdout and its metrics, one
// per line in key order, to stderr.
func runOne(e experiments.Experiment, opt experiments.Options) error {
	out, err := e.Run(opt)
	if err != nil {
		return err
	}
	fmt.Println(out.Text)
	for _, k := range slices.Sorted(maps.Keys(out.Metrics)) {
		fmt.Fprintf(os.Stderr, "easydram: %s = %g\n", k, out.Metrics[k])
	}
	return nil
}

// experimentNames lists the valid experiment arguments, "|"-separated.
func experimentNames() string {
	var names []string
	for _, e := range experiments.Catalog() {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), "|")
}
