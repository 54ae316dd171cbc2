// Command easydram runs the paper's experiments and prints their tables
// and series.
//
// Usage:
//
//	easydram [-quick] [-seed N] [-channels N] [-ranks N] [-shard-workers N]
//	         [-cores N] [-faults] [-mitigation P] [-save-profile DIR]
//	         [-load-profile DIR] [-checkpoint FILE] [-v] <experiment>
//
// where experiment is one of: table1, fig2, validation, fig8, fig10,
// fig11, fig12, fig13, fig14, energy, ablations, disturb, snapshot,
// fairness, all.
package main

import (
	"flag"
	"fmt"
	"os"

	"easydram/internal/experiments"
	"easydram/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "use unit-test-scale parameters")
	seed := flag.Uint64("seed", 1, "DRAM variation seed")
	channels := flag.Int("channels", 0, "memory channels (power of two; 0 = the paper's single channel). Topology is a workload axis: multi-channel runs overlap service and change emulated timing")
	shardWorkers := flag.Int("shard-workers", 0, "host workers advancing emulated channels in parallel within one run (0 = GOMAXPROCS, 1 = serial); results are byte-identical at any count")
	ranks := flag.Int("ranks", 0, "ranks per channel bus (power of two; 0 = the paper's single rank; rank switches pay the tRTRS turnaround)")
	cores := flag.Int("cores", 0, "emulated core count the fairness sweep tops out at (0 = the default {2, 4} grid); a modeled-system axis — more cores means more contention")
	faults := flag.Bool("faults", false, "arm default fault injection (chip disturb, transient/stuck-at reads, host-link failures) on every run; deterministic in -seed")
	mitigation := flag.String("mitigation", "", "RowHammer mitigation policy on every run: para or trr (empty = none)")
	verbose := flag.Bool("v", false, "print per-run health counters to stderr: DRAM timing/rank-switch violations, retries, quarantined/remapped rows, mitigation refreshes, link faults")
	saveProfile := flag.String("save-profile", "", "directory to persist characterization profiles to (atomic writes; profiling experiments write one file per workload)")
	loadProfile := flag.String("load-profile", "", "characterization store directory to warm-start from; missing/corrupt/stale profiles degrade to fresh characterization")
	checkpoint := flag.String("checkpoint", "", "file the snapshot experiment writes its mid-run system checkpoint to")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: easydram [-quick] [-seed N] [-channels N] [-ranks N] [-shard-workers N] [-cores N] [-faults] [-mitigation P] [-save-profile DIR] [-load-profile DIR] [-checkpoint FILE] [-v] <table1|fig2|validation|fig8|fig10|fig11|fig12|fig13|fig14|energy|ablations|disturb|snapshot|fairness|all>\n")
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
	opt.ShardWorkers = *shardWorkers
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

// printFigure13 prints Figure 13's speedup table, or for fig14 the
// simulation-speed table from the same runs.
func printFigure13(name string, r *experiments.TRCDResult) {
	if name == "fig13" {
		fmt.Println(r.Table())
	} else {
		fmt.Println(r.SpeedTable())
	}
}

func run(name string, opt experiments.Options) error {
	switch name {
	case "table1":
		r, err := experiments.Table1(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	case "fig2":
		r, err := experiments.Figure2(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "validation":
		r, err := experiments.Validation(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "fig8":
		r, err := experiments.Figure8(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "fig10":
		r, err := experiments.RowClone(opt, false)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "fig11":
		r, err := experiments.RowClone(opt, true)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "fig12":
		r, err := experiments.Figure12(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Heatmap())
	case "energy":
		r, err := experiments.Energy(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "ablations":
		rs, err := experiments.Ablations(opt)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Println(r.Table())
		}
	case "disturb":
		r, err := experiments.DisturbSweep(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "snapshot":
		r, err := experiments.WarmStart(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
		if s := r.SpeedupX(); s > 0 {
			fmt.Fprintf(os.Stderr, "easydram: warm-start characterization speedup %.1fx (host wall clock)\n", s)
		}
	case "fairness":
		r, err := experiments.FairnessSweep(opt)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
	case "fig13", "fig14":
		r, err := experiments.Figure13(opt)
		if err != nil {
			return err
		}
		printFigure13(name, r)
	case "all":
		// Figure 14 comes from Figure 13's runs: compute them once.
		var fig13 *experiments.TRCDResult
		for _, n := range []string{"table1", "fig2", "validation", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "energy", "ablations", "disturb", "snapshot", "fairness"} {
			fmt.Printf("==== %s ====\n", n)
			var err error
			if n == "fig13" || n == "fig14" {
				if fig13 == nil {
					fig13, err = experiments.Figure13(opt)
				}
				if err == nil {
					printFigure13(n, fig13)
				}
			} else {
				err = run(n, opt)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
