// Command benchall regenerates every table and figure of the paper and
// writes a report to stdout (or a file), one section per entry of
// experiments.Catalog, recording the paper's numbers next to the measured
// ones. With -json it also writes a machine-readable snapshot: the headline
// metric values plus per-section wall-clock timings. The metrics other than
// the one wall-clock speedup are emulated results, pinned by main_test.go's
// golden file; host speed is measured by the bench/ module, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"runtime"
	"time"

	"easydram/internal/experiments"
	"easydram/internal/workload"
)

func main() {
	out := flag.String("o", "", "report output file (default stdout)")
	quick := flag.Bool("quick", false, "use reduced-scale parameters")
	seed := flag.Uint64("seed", 1, "DRAM variation seed")
	workers := flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "snapshot file (default: none written)")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("benchall: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("benchall: %v", err)
			}
		}()
		w = f
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
		opt.KernelSize = workload.Small
	}
	opt.Seed = *seed
	opt.Workers = *workers

	snap := newSnapshot(opt, *quick)
	if err := report(w, opt, snap); err != nil {
		log.Fatalf("benchall: %v", err)
	}

	if *jsonOut != "" {
		if err := snap.write(*jsonOut); err != nil {
			log.Fatalf("benchall: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchall: wrote %s\n", *jsonOut)
	}
}

// snapshot is the machine-readable record of one benchall run, written
// with -json.
type snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Quick      bool    `json:"quick"`
	Seed       uint64  `json:"seed"`
	WallSecs   float64 `json:"wall_seconds"`
	// Sections records per-experiment wall-clock seconds in run order.
	Sections []sectionTiming `json:"sections"`
	// Metrics holds the headline numeric results keyed experiment/metric.
	Metrics map[string]float64 `json:"metrics"`
}

type sectionTiming struct {
	Name     string  `json:"name"`
	WallSecs float64 `json:"wall_seconds"`
}

func newSnapshot(opt experiments.Options, quick bool) *snapshot {
	return &snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    opt.Workers,
		Quick:      quick,
		Seed:       opt.Seed,
		Metrics:    map[string]float64{},
	}
}

func (s *snapshot) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report runs every catalog experiment in order: a "## Title" section with
// its text in the report, its metrics merged into the snapshot, and its wall
// clock recorded as a section timing.
func report(w io.Writer, opt experiments.Options, snap *snapshot) error {
	start := time.Now()
	for _, e := range experiments.Catalog() {
		t0 := time.Now()
		fmt.Fprintf(w, "\n## %s\n\n", e.Title)
		out, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(w, out.Text)
		maps.Copy(snap.Metrics, out.Metrics)
		snap.Sections = append(snap.Sections, sectionTiming{e.Name, time.Since(t0).Seconds()})
	}

	snap.WallSecs = time.Since(start).Seconds()
	// Wall-clock goes to the snapshot and stderr, never the report: the
	// report's bytes are identical across runs and -workers settings, which
	// is the cheap determinism probe for the parallel harness.
	fmt.Fprintf(os.Stderr, "benchall: total runtime %v\n", time.Since(start).Round(time.Second))
	return nil
}
