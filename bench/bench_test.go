package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// scoped lists the printed metrics that are not in BENCHMARK.json, with the
// workloads that exercise what they measure. On the others they must be
// printed as absent.
var scoped = map[string][]string{
	"peak_rss_mb":                   WorkloadNames(),
	"ts_max_err_pct":                {"polybench-pair"},
	"rows_per_s":                    {"characterize"},
	"core.settle_batch_len":         {"polybench-pair", "stream-write-4ch", "mixed-4core", "characterize"},
	"techniques.profile_ns_per_row": {"characterize"},
	"core.stripe_ns_per_row":        {"characterize"},
}

// line is one printed "name value unit" line.
type line struct{ value, unit string }

// printed runs one tiny-scale run and returns its "name value unit" lines
// by name, failing the test on any failed check.
func printed(t *testing.T, opt Options) (map[string]line, *Report) {
	t.Helper()
	opt.Scale, opt.Seed = "tiny", DefaultSeed
	var stderr bytes.Buffer
	rep, err := Run(opt, &stderr)
	if err != nil {
		t.Fatalf("%s: %v", opt.Workload, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: %d of %d checks failed:\n%s", opt.Workload, rep.Failed, rep.Attempted, stderr.String())
	}
	var out bytes.Buffer
	if err := Print(&out, rep); err != nil {
		t.Fatal(err)
	}
	lines := map[string]line{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 {
			lines[f[0]] = line{f[1], f[2]}
		}
	}
	return lines, rep
}

// checkPrinted checks that every metric of want is printed with its unit
// and a value, and that each scoped metric of the mode is printed, absent
// exactly on the workloads it is not scoped to.
func checkPrinted(t *testing.T, workload string, got map[string]line, want []manifestMetric, scopedNames ...string) {
	t.Helper()
	for _, m := range want {
		l, ok := got[m.Name]
		if !ok || l.unit != m.Unit || l.value == "absent" {
			t.Errorf("%s: metric %s printed as %q %q (present %v), want a value in %s", workload, m.Name, l.value, l.unit, ok, m.Unit)
		}
	}
	for _, name := range scopedNames {
		l, ok := got[name]
		wantAbsent := !slices.Contains(scoped[name], workload)
		if !ok || (l.value == "absent") != wantAbsent {
			t.Errorf("%s: metric %s printed as %q (present %v), want absent %v", workload, name, l.value, ok, wantAbsent)
		}
	}
}

// TestWorkloads runs every workload at tiny scale and default seed, measured
// and traced: the golden digests and every other output check must pass,
// every BENCHMARK.json metric must be printed with its unit and every scoped
// one present or absent as listed, the cpu replay must issue exactly the
// requests the single-core runs received, and the trace must parse with
// every span's parent present. BENCHMARK.json may list a subset of the
// workloads, but no other.
func TestWorkloads(t *testing.T) {
	m := loadManifest(t)
	for _, w := range m.Workloads {
		if !slices.Contains(WorkloadNames(), w.Name) {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, w := range WorkloadNames() {
		got, _ := printed(t, Options{Workload: w})
		checkPrinted(t, w, got, m.EndToEnd, "peak_rss_mb", "ts_max_err_pct", "rows_per_s")

		trace := filepath.Join(t.TempDir(), "trace.json")
		got, rep := printed(t, Options{Workload: w, TraceOut: trace})
		checkPrinted(t, w, got, m.PerLayer, "core.settle_batch_len", "techniques.profile_ns_per_row", "core.stripe_ns_per_row")
		if w != "mixed-4core" && rep.ReplayChecks == 0 {
			t.Errorf("%s: no cpu replay was checked against its run's request count", w)
		}
		checkTrace(t, w, trace)
	}
}

func checkTrace(t *testing.T, workload, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: trace does not parse: %v", workload, err)
	}
	ids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		ids[ev.Args.ID] = true
	}
	roots := 0
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Args.Parent == 0:
			roots++
		case !ids[ev.Args.Parent]:
			t.Errorf("%s: span %d (%s) has missing parent %d", workload, ev.Args.ID, ev.Name, ev.Args.Parent)
		}
	}
	if roots != 1 || len(tf.TraceEvents) < 2 {
		t.Errorf("%s: trace has %d spans and %d roots, want one root and its children", workload, len(tf.TraceEvents), roots)
	}
}
