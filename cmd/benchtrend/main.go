// Command benchtrend compares a freshly generated benchall snapshot (see
// cmd/benchall) against the repository's committed BENCH_*.json baseline
// and exits non-zero on a performance regression — the bench-trend CI gate
// the repository's perf trajectory is judged against.
//
// Only substrate metrics are gated: the per-operation cost of the
// cache-hit and miss-path service loops and the weak-row characterization
// throughput. Raw ns/op and rows/sec are machine-dependent, so they fail
// the build only when the baseline was produced on the same machine shape
// (same Go version and GOMAXPROCS) — on a mismatched host they are
// reported as warnings instead, since a hardware difference would
// otherwise masquerade as a code regression (or hide one). The host round
// trips per profiled row are a pure property of the algorithm and gate
// unconditionally, as do the substrate allocs/op counts, which must be
// exactly zero: the service loops are zero-alloc by construction and any
// nonzero value is a code regression regardless of host or baseline. The
// same absolute gate guards faults/trr_escaped_flips — the TRR mitigation's
// zero-flip guarantee is structural, not statistical — and, as a fixed
// ceiling rather than a zero check, difffuzz/max_err_pct, which must stay
// under the paper's 1% validation envelope, and shard/identity_mismatches,
// which must be exactly zero: sharded channel execution is byte-identical
// to serial by construction. Host-parallelism metrics
// (experiments/workers_speedup_4x, substrate/shard_speedup_x) additionally
// require both snapshots to record enough host CPUs (host_cpus) to express
// the measured parallelism; otherwise they warn.
// Semantic experiment results (figure speedups,
// validation error) are reported informationally — those belong to the
// experiments' own tests.
//
// A baseline that predates the substrate metrics simply has nothing to
// compare; benchtrend reports that and passes, so the gate arms itself as
// soon as a snapshot with substrate numbers is committed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// gatedMetric describes how one substrate metric is judged.
type gatedMetric struct {
	// lowerIsBetter: true for costs (ns/op), false for throughput.
	lowerIsBetter bool
	// machineDependent metrics fail the gate only when baseline and new
	// snapshot report the same machine shape; otherwise they warn.
	machineDependent bool
	// mustBeZero metrics gate on their absolute value: any nonzero fresh
	// value fails, baseline or not. Allocation counts use this — the
	// substrate service loops are zero-alloc by construction, and that is a
	// property of the code, not the machine.
	mustBeZero bool
	// warnOnly metrics are reported with regression status but never fail
	// the build: they exist to log a trajectory (e.g. the worker pool's
	// real multi-core scaling) until enough CI points exist to justify a
	// hard gate.
	warnOnly bool
	// minHostCPUs, when nonzero, gates the metric only if BOTH snapshots
	// record at least that many host CPUs (snapshot field host_cpus; 0 on
	// baselines that predate it). Host-parallelism metrics use this: a
	// 1-core runner cannot express a 4-worker speedup, so judging it there
	// would fail every merge on hardware grounds.
	minHostCPUs int
	// mustBeBelow, when nonzero, gates the fresh value against that
	// absolute ceiling, baseline or not, on any machine shape. Paper-bound
	// accuracy metrics use this: the differential sweep is a pure function
	// of its seed, so a cycle error at or past the published envelope is a
	// fidelity regression on any host.
	mustBeBelow float64
}

// trendMetrics is the set of gated substrate metrics.
var trendMetrics = map[string]gatedMetric{
	"substrate/cache_ns_op":         {lowerIsBetter: true, machineDependent: true},
	"substrate/miss_ns_op":          {lowerIsBetter: true, machineDependent: true},
	"substrate/multichan_ns_op":     {lowerIsBetter: true, machineDependent: true},
	"substrate/fault_free_ns_op":    {lowerIsBetter: true, machineDependent: true},
	"substrate/cache_allocs_op":     {mustBeZero: true},
	"substrate/miss_allocs_op":      {mustBeZero: true},
	"substrate/multichan_allocs_op": {mustBeZero: true},
	// Fault tolerance must not put allocations on the fault-free service
	// loop: the verify-and-retry read path is armed in this benchmark, so a
	// nonzero count means recovery started charging the happy path.
	"substrate/fault_free_allocs_op": {mustBeZero: true},
	// TRR's zero-escaped-flip guarantee is structural (its threshold keeps
	// every victim below the chip's minimum disturb threshold) and the sweep
	// is a pure function of the seed, so any nonzero value is a mitigation
	// bug on any host.
	"faults/trr_escaped_flips": {mustBeZero: true},
	// The multi-channel service overlap is a pure property of the traffic
	// spread and the modeled service costs (no wall clock involved), so it
	// gates on any host: a drop means the per-channel controllers stopped
	// overlapping.
	"substrate/multichan_overlap_x": {lowerIsBetter: false},
	// The worker pool's 1->4-worker wall-clock speedup on real cores. Gated
	// when both snapshots come from hosts with at least 4 CPUs (recorded in
	// host_cpus); smaller runners — where the ratio hovers near 1x on
	// hardware grounds — and pre-host_cpus baselines only warn.
	"experiments/workers_speedup_4x": {lowerIsBetter: false, machineDependent: true, minHostCPUs: 4},
	// The shard runner's 1->4-worker within-run wall-clock speedup on a
	// fence-heavy 4-channel workload. Like workers_speedup_4x it needs real
	// cores to express, so it gates only between >=4-CPU snapshots and
	// warns elsewhere.
	"substrate/shard_speedup_x": {lowerIsBetter: false, machineDependent: true, minHostCPUs: 4},
	// Sharded execution is byte-identical to serial by construction (the
	// merge replays the exact serial step order), so any mismatch between
	// worker counts is a determinism bug on any host.
	"shard/identity_mismatches":           {mustBeZero: true},
	"characterization/rows_per_sec":       {lowerIsBetter: false, machineDependent: true},
	"characterization/roundtrips_per_row": {lowerIsBetter: true},
	// The differential sweep's worst fault-free cycle error across the
	// tier-1 config slice must stay inside the paper's <1% validation
	// envelope (§6). The sweep is deterministic (fixed seed, modeled time
	// only), so the bound holds machine-independently.
	"difffuzz/max_err_pct": {mustBeBelow: 1.0},
	// The fairness sweep's headline cell — BLISS on the mixed mix at the top
	// core count — is a pure function of the modeled system (no wall clock),
	// so it gates machine-independently: the measured max slowdown is ~1.99
	// and FR-FCFS's is ~2.10, so a value at or past 2.5 means the streak cap
	// stopped protecting the victim core.
	"fairness/max_slowdown": {mustBeBelow: 2.5},
	// Delivered multiprogram throughput under BLISS on the same cell —
	// trajectory only until enough CI points justify a hard gate.
	"fairness/weighted_speedup": {warnOnly: true},
	// Snapshot round-trip identity is structural: a decoded profile must
	// equal the encoded one and a checkpoint-restored run must be
	// byte-identical to the uninterrupted run, on any host. Any nonzero
	// count is a serialization bug, so it gates machine-independently.
	"snapshot/identity_mismatches": {mustBeZero: true},
}

type snapshot struct {
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	HostCPUs   int                `json:"host_cpus"`
	Metrics    map[string]float64 `json:"metrics"`
}

// sameMachineShape reports whether two snapshots were produced on
// comparable hosts, making their raw-time metrics directly gateable.
func sameMachineShape(a, b *snapshot) bool {
	return a.GoVersion == b.GoVersion && a.GOMAXPROCS == b.GOMAXPROCS
}

func loadSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// latestBaseline returns the lexicographically newest BENCH_*.json in dir
// (the files are date-named, so lexical order is chronological order).
func latestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baseline found in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func main() {
	newPath := flag.String("new", "", "freshly generated snapshot to judge (required)")
	basePath := flag.String("baseline", "", "baseline snapshot (default: newest BENCH_*.json in -dir)")
	dir := flag.String("dir", ".", "directory searched for the committed baseline")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression before failing")
	flag.Parse()

	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchtrend: -new is required")
		os.Exit(2)
	}
	if *basePath == "" {
		p, err := latestBaseline(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			os.Exit(2)
		}
		*basePath = p
	}
	base, err := loadSnapshot(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: baseline: %v\n", err)
		os.Exit(2)
	}
	fresh, err := loadSnapshot(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: new snapshot: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("baseline %s (%s) vs %s (%s), tolerance %.0f%%\n",
		*basePath, base.Date, *newPath, fresh.Date, 100**tolerance)

	gated := make([]string, 0, len(trendMetrics))
	for m := range trendMetrics {
		gated = append(gated, m)
	}
	sort.Strings(gated)

	comparable := sameMachineShape(base, fresh)
	if !comparable {
		fmt.Printf("machine shape differs (go %s/%d procs vs %s/%d): machine-dependent metrics warn only\n",
			base.GoVersion, base.GOMAXPROCS, fresh.GoVersion, fresh.GOMAXPROCS)
	}
	var regressions []string
	compared := 0
	for _, m := range gated {
		gm := trendMetrics[m]
		bv, inBase := base.Metrics[m]
		nv, inNew := fresh.Metrics[m]
		if gm.mustBeZero {
			// Absolute gate: judged against zero, with or without a
			// baseline value, on any machine shape.
			if !inNew {
				continue
			}
			compared++
			status := "ok"
			if nv != 0 {
				status = "REGRESSION (must be zero)"
				regressions = append(regressions, m)
			}
			baseStr := "n/a"
			if inBase {
				baseStr = fmt.Sprintf("%.1f", bv)
			}
			fmt.Printf("  %-40s %14s -> %14.1f  (gate: == 0)  %s\n", m, baseStr, nv, status)
			continue
		}
		if gm.mustBeBelow > 0 {
			// Absolute ceiling: judged against the threshold, with or
			// without a baseline value, on any machine shape.
			if !inNew {
				continue
			}
			compared++
			status := "ok"
			if nv >= gm.mustBeBelow {
				status = "REGRESSION (over ceiling)"
				regressions = append(regressions, m)
			}
			baseStr := "n/a"
			if inBase {
				baseStr = fmt.Sprintf("%.4f", bv)
			}
			fmt.Printf("  %-40s %14s -> %14.4f  (gate: < %g)  %s\n", m, baseStr, nv, gm.mustBeBelow, status)
			continue
		}
		if !inBase || !inNew || bv == 0 {
			continue
		}
		compared++
		change := nv/bv - 1 // positive = value went up
		regressed := change > *tolerance
		if !gm.lowerIsBetter {
			regressed = change < -*tolerance
		}
		status := "ok"
		if regressed {
			switch {
			case gm.warnOnly:
				status = "warn (warn-only metric, not gated)"
			case gm.minHostCPUs > 0 && (base.HostCPUs < gm.minHostCPUs || fresh.HostCPUs < gm.minHostCPUs):
				status = fmt.Sprintf("warn (host < %d CPUs, not gated)", gm.minHostCPUs)
			case gm.machineDependent && !comparable:
				status = "warn (machine mismatch, not gated)"
			default:
				status = "REGRESSION"
				regressions = append(regressions, m)
			}
		}
		fmt.Printf("  %-40s %14.1f -> %14.1f  (%+6.1f%%)  %s\n", m, bv, nv, 100*change, status)
	}
	if compared == 0 {
		fmt.Println("baseline has no substrate metrics yet; nothing to gate (pass)")
		return
	}

	// Informational drift report for the shared semantic metrics.
	var shared []string
	for m := range base.Metrics {
		if _, gatedMetric := trendMetrics[m]; gatedMetric {
			continue
		}
		if _, ok := fresh.Metrics[m]; ok {
			shared = append(shared, m)
		}
	}
	sort.Strings(shared)
	if len(shared) > 0 {
		fmt.Println("semantic metrics (informational):")
		for _, m := range shared {
			bv, nv := base.Metrics[m], fresh.Metrics[m]
			pct := 0.0
			if bv != 0 {
				pct = 100 * (nv/bv - 1)
			}
			fmt.Printf("  %-40s %14.4f -> %14.4f  (%+6.1f%%)\n", m, bv, nv, pct)
		}
	}

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: %d substrate regression(s) beyond %.0f%%: %v\n",
			len(regressions), 100**tolerance, regressions)
		os.Exit(1)
	}
	fmt.Println("bench trend ok")
}
