package main

import (
	"encoding/json"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"easydram/internal/experiments"
	"easydram/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics_golden.json from this run")

// TestMetricsGolden pins every emulated metric of a -quick benchall run to
// testdata/metrics_golden.json: the paper's tables and figures, the fault,
// fairness, snapshot, characterization and difffuzz extensions. Values are
// compared at 12 significant digits, which is exact in practice and robust
// to fused multiply-add contraction on other architectures. A metric added
// or dropped fails too. Regenerate with `go test ./cmd/benchall -update`
// after a deliberate change to emulated output.
func TestMetricsGolden(t *testing.T) {
	opt := experiments.Quick()
	opt.KernelSize = workload.Small
	snap := newSnapshot(opt, true)
	if err := report(io.Discard, opt, snap); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for k, v := range snap.Metrics {
		if k != experiments.WallClockMetric {
			got[k] = strconv.FormatFloat(v, 'g', 12, 64)
		}
	}

	path := filepath.Join("testdata", "metrics_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: missing from the snapshot (golden %s)", k, want[k])
		case g != want[k]:
			t.Errorf("%s = %s, golden %s", k, g, want[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if _, ok := want[k]; !ok {
			t.Errorf("%s = %s: not in the golden file", k, got[k])
		}
	}
}
