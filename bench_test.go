package easydram

// The benchmark harness regenerates every table and figure of the paper's
// evaluation, plus the extensions beyond it, from experiments.Catalog (run
// with `go test -bench . -benchtime 1x`). Each sub-benchmark runs one
// catalog entry at paper scale, prints its report text via b.Log and
// reports its headline metrics, so `go test -bench` output alone records
// the paper-vs-measured comparison.

import (
	"maps"
	"slices"
	"testing"

	"easydram/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Catalog() {
		b.Run(e.Name, func(b *testing.B) {
			for b.Loop() {
				out, err := e.Run(experiments.Default())
				if err != nil {
					b.Fatal(err)
				}
				b.Log("\n" + out.Text)
				for _, k := range slices.Sorted(maps.Keys(out.Metrics)) {
					b.ReportMetric(out.Metrics[k], k)
				}
			}
		})
	}
}
