// Package bench is the repository's host-throughput benchmark: it measures
// how fast this Go implementation of EasyDRAM emulates, end to end and per
// layer, on five seeded workloads, and checks the emulated outputs while it
// does. See README.md for the workloads, the metrics and how to run it.
//
// A measured run (trace off) repeats a workload's units for a fixed time
// and reports the end-to-end metrics, timed in reference seconds that a
// busy host does not stretch (see refClock). A traced run executes each
// unit twice, plain and with spans (the difference is the tracing
// overhead), then replays the unit's inputs into each layer alone — the op streams into
// workload, cpu and cache; the requests the cpu replay issues into smc; the
// commands the smc replay issues into bender, timing and dram — and reports
// host time per call of each layer.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"easydram/internal/core"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long a run keeps starting units; a run always finishes
	// at least one pass.
	Seconds float64
	// TraceOut, when set, selects the traced run (per-layer metrics) over
	// the measured run (end-to-end metrics) and names the file it writes
	// its spans to, as Chrome trace-event JSON.
	TraceOut string
	// Scale is "full" (the benchmark) or "tiny" (the package test).
	Scale string
	// UpdateGolden re-runs one period of units at the default seed and
	// rewrites their digests in goldenPath instead of measuring.
	UpdateGolden bool
}

// Metric is one reported number. An absent metric measures a layer or a
// check the workload does not exercise, so it has no value.
type Metric struct {
	Name   string
	Value  float64
	Unit   string
	Absent bool
}

// Report is the outcome of a run.
type Report struct {
	Correct   bool
	Attempted int
	Failed    int
	// Metrics are the BENCHMARK.json metrics of the run's mode: end-to-end
	// for measured runs, per-layer for traced runs. Every workload has them.
	Metrics []Metric
	// Notes are printed beside the metrics but left out of the JSON result:
	// the metrics that only some workloads exercise (absent on the others)
	// and the run's own counts.
	Notes []Metric
	// ReplayChecks counts single-core inputs whose cpu replay issued exactly
	// the requests the end-to-end runs received.
	ReplayChecks int
}

// WorkloadNames lists the workloads in presentation order.
func WorkloadNames() []string {
	var names []string
	for _, w := range workloads(DefaultSeed, scales["tiny"]) {
		names = append(names, w.name)
	}
	return names
}

// op is one checked operation: a system run or a profiled span. An op
// fails at most once, however many of its checks fail.
type op struct {
	name string
	bad  bool
}

// acc accumulates the end-to-end quantities of one unit (measured runs) or
// of one kind of execution, plain or traced (traced runs).
type acc struct {
	cycles, reqs int64
	runDur       time.Duration // inside Run and RunStreams
	wall         time.Duration // whole units: set-up, runs and checks
	runs         int
	setups       []time.Duration // each core.NewSystem call
	setupRefs    []time.Duration // each call's set-up reference (measured runs)
	rows         int64           // profiled by ProfileWeakRows
	profDur      time.Duration   // inside ProfileWeakRows

	// Traced executions only.
	settleBatches, settleDelivered int64
	shardRounds, shardSteps        int64
	allocBytes                     uint64
}

type harness struct {
	opt    Options
	sc     scale
	w      workloadDef
	stderr io.Writer

	golden  map[string]string
	capture map[string]string // digests taken under -update-golden

	tr     *tracer
	root   int
	traced bool      // the current execution records spans and replay inputs
	ref    *refClock // measured runs only
	acc    *acc

	ops      int
	failed   int
	tsPairs  int // time-scaled runs compared with their reference run
	tsMaxErr float64

	inputs       []*replayInput
	layers       layerStats
	replayChecks int
}

func (h *harness) newOp(name string) *op {
	h.ops++
	return &op{name: name}
}

// fail records a failed check against o and prints its reason.
func (h *harness) fail(o *op, format string, args ...any) {
	if !o.bad {
		o.bad = true
		h.failed++
	}
	fmt.Fprintf(h.stderr, "FAIL %s/%s: %s\n", h.w.name, o.name, fmt.Sprintf(format, args...))
}

// newSystem builds a system, timing it as set-up, and in a measured run
// times the set-up reference right after it.
func (h *harness) newSystem(cfg core.Config) (*core.System, error) {
	t0 := time.Now()
	sys, err := core.NewSystem(cfg)
	t1 := time.Now()
	h.acc.setups = append(h.acc.setups, t1.Sub(t0))
	if h.ref != nil {
		h.acc.setupRefs = append(h.acc.setupRefs, h.ref.zero())
	}
	h.tr.add("core.NewSystem", h.root, t0, t1)
	return sys, err
}

// runSpec describes one system run of a unit.
type runSpec struct {
	name    string                   // golden-digest key within the workload
	config  func() core.Config       // a fresh config per system (schedulers can be stateful)
	streams func() []workload.Stream // fresh op streams, one per core
	input   string                   // runs with equal input keys share one set of layer replays
}

// run builds the system, runs it, and checks its output. The op is nil
// when the run could not complete.
func (h *harness) run(spec runSpec) (core.Result, *op) {
	o := h.newOp(spec.name)
	sys, err := h.newSystem(spec.config())
	if err != nil {
		h.fail(o, "%v", err)
		return core.Result{}, nil
	}
	strms := spec.streams()
	var before runtime.MemStats
	if h.traced {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	var res core.Result
	if len(strms) == 1 {
		res, err = sys.Run(strms[0])
	} else {
		res, err = sys.RunStreams(strms)
	}
	t1 := time.Now()
	if err != nil {
		h.fail(o, "%v", err)
		return core.Result{}, nil
	}
	a := h.acc
	a.cycles += int64(res.ProcCycles)
	a.reqs += res.Tile.RequestsIn
	a.runDur += t1.Sub(t0)
	a.runs++
	if h.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		a.allocBytes += after.TotalAlloc - before.TotalAlloc
		b, d := sys.SettleStats()
		a.settleBatches += b
		a.settleDelivered += d
		r, s := sys.ShardStats()
		a.shardRounds += r
		a.shardSteps += s
		id := h.tr.add("core.Run", h.root, t0, t1)
		h.addInput(spec, o, res, t1.Sub(t0), id)
	}
	switch {
	case res.ProcCycles <= 0:
		h.fail(o, "ran for %d cycles", res.ProcCycles)
	case res.Tile.RequestsIn != res.Tile.ResponsesOut || res.Tile.RequestsIn != res.Ctrl.Served:
		h.fail(o, "requests in %d, responses out %d, served %d", res.Tile.RequestsIn, res.Tile.ResponsesOut, res.Ctrl.Served)
	case res.Chip.RankSwitchViolations != 0:
		h.fail(o, "%d rank-switch violations", res.Chip.RankSwitchViolations)
	}
	h.checkDigest(o, spec.name, res)
	return res, o
}

// profile characterizes [start, end) for weak rows at the reduced tRCD.
func (h *harness) profile(name string, sys *core.System, start, end uint64) ([]uint64, *op) {
	o := h.newOp(name + "/profile")
	t0 := time.Now()
	weak, stats, err := techniques.ProfileWeakRows(sys, start, end, techniques.ReducedTRCD)
	t1 := time.Now()
	if err != nil {
		h.fail(o, "%v", err)
		return nil, nil
	}
	h.acc.rows += int64(stats.Rows)
	h.acc.profDur += t1.Sub(t0)
	h.tr.add("techniques.ProfileWeakRows", h.root, t0, t1)
	if rows := int((end - start) / uint64(sys.Mapper().RowBytes())); stats.Rows != rows || stats.WeakRows != len(weak) {
		h.fail(o, "profiled %d rows (%d weak, %d keys), want %d rows", stats.Rows, stats.WeakRows, len(weak), rows)
	}
	h.checkDigest(o, name+"/profile", struct {
		Weak  []uint64
		Stats techniques.ProfileStats
	}{weak, stats})
	return weak, o
}

// checkDigest compares an output's digest with the golden one at the
// default seed, or records it under -update-golden.
func (h *harness) checkDigest(o *op, name string, v any) {
	if h.opt.Seed != DefaultSeed {
		return
	}
	sum, err := digestOf(v)
	if err != nil {
		h.fail(o, "%v", err)
		return
	}
	key := h.opt.Scale + "/" + h.w.name + "/" + name
	if h.capture != nil {
		h.capture[key] = sum
		return
	}
	want, ok := h.golden[key]
	switch {
	case !ok:
		h.fail(o, "no golden digest for %s", key)
	case want != sum:
		h.fail(o, "output digest %.12s differs from golden %.12s", sum, want)
	}
}

// Run executes one benchmark run and returns its report. Check failures
// land in the report (and on stderr); errors are reserved for runs that
// could not be carried out at all.
func Run(opt Options, stderr io.Writer) (*Report, error) {
	sc, ok := scales[opt.Scale]
	if !ok {
		return nil, fmt.Errorf("bench: unknown scale %q (want full or tiny)", opt.Scale)
	}
	if opt.UpdateGolden {
		return nil, updateGolden(opt, sc, stderr)
	}
	var w *workloadDef
	for _, d := range workloads(opt.Seed, sc) {
		if d.name == opt.Workload {
			w = &d
			break
		}
	}
	if w == nil {
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", opt.Workload, strings.Join(WorkloadNames(), ", "))
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		return nil, err
	}
	h := &harness{opt: opt, sc: sc, w: *w, stderr: stderr, golden: golden, tr: newTracer()}
	var rep *Report
	if opt.TraceOut != "" {
		rep, err = h.traceRun()
	} else {
		rep = h.measure()
	}
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = h.ops, h.failed
	rep.Correct = h.failed == 0 && h.ops > 0
	rep.ReplayChecks = h.replayChecks
	return rep, nil
}

// runUnit executes unit k. The heap carries over from the previous unit, as
// in any long-lived process: returning it to the operating system between
// units made each unit's set-up fault its memory back in, which cost twice
// the set-up's own work and followed the host's load.
func (h *harness) runUnit(k int) {
	t0 := time.Now()
	h.w.unit(h, k%h.w.period)
	h.acc.wall += time.Since(t0)
}

// measure is the measured run: whole passes of units, starting another
// only while the mean pass so far still fits in the time left, and always
// at least one. Every time it reports is in reference seconds (see
// refClock): each unit's host times scaled by the reference loop timed
// right after the unit, and each set-up call's by the set-up reference
// timed right after the call. Throughput and the mean pass time cover
// every unit of the run; the pass time leaves out the set-up references.
// Set-up time is a unit's: the sum, over the systems a unit builds, of
// each one's median over the run. Taken per system, the median passes over
// the calls that met a garbage collection in progress, which on
// characterize come in pairs and would sway a median of whole units.
func (h *harness) measure() *Report {
	ref := newRefClock()
	h.ref = ref
	var total acc
	var setups [][]float64 // reference seconds, by the NewSystem call's place in its unit
	var hostSpeeds []float64
	passes := 0
	start := time.Now()
	for k := 0; ; passes++ {
		if passes > 0 {
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(passes) > h.opt.Seconds {
				break
			}
		}
		for end := k + h.w.passUnits; k < end; k++ {
			h.acc = &acc{}
			h.runUnit(k)
			s := ref.scale()
			u := h.acc
			toRef := func(d time.Duration) time.Duration { return time.Duration(float64(d) * s) }
			total.cycles += u.cycles
			total.reqs += u.reqs
			total.runDur += toRef(u.runDur)
			total.rows += u.rows
			total.profDur += toRef(u.profDur)
			wall := u.wall
			for i, d := range u.setups {
				if i == len(setups) {
					setups = append(setups, nil)
				}
				z := u.setupRefs[i]
				setups[i] = append(setups[i], zeroNominal.Seconds()*float64(d)/float64(z))
				wall -= z
			}
			total.wall += toRef(wall)
			hostSpeeds = append(hostSpeeds, s)
		}
	}
	setup := 0.0
	for _, s := range setups {
		setup += median(s)
	}
	secs := total.runDur.Seconds()
	return &Report{
		Metrics: []Metric{
			{Name: "emu_mcycles_per_s", Value: float64(total.cycles) / secs / 1e6, Unit: "Mcycles/s"},
			{Name: "mem_reqs_per_s", Value: float64(total.reqs) / secs, Unit: "req/s"},
			{Name: "setup_s", Value: setup, Unit: "s"},
			{Name: "wall_s", Value: total.wall.Seconds() / float64(passes), Unit: "s"},
		},
		Notes: []Metric{
			{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"},
			{Name: "fail_frac", Value: float64(h.failed) / float64(h.ops), Unit: "ratio"},
			{Name: "passes", Value: float64(passes), Unit: "count"},
			{Name: "host_speed", Value: median(hostSpeeds), Unit: "ratio"},
			{Name: "ts_max_err_pct", Value: h.tsMaxErr, Unit: "%", Absent: h.tsPairs == 0},
			{Name: "rows_per_s", Value: float64(total.rows) / total.profDur.Seconds(), Unit: "rows/s", Absent: total.rows == 0},
		},
	}
}

// traceRun is the traced run: each unit runs plain and traced (alternating
// which goes first), and the traced execution's inputs are replayed into
// each layer alone.
func (h *harness) traceRun() (*Report, error) {
	plain, traced := &acc{}, &acc{}
	h.tr.on = true
	h.root = h.tr.open("bench."+h.w.name, 0)
	start := time.Now()
	for k := 0; ; k++ {
		if elapsed := time.Since(start).Seconds(); k > 0 && elapsed+elapsed/float64(k) > h.opt.Seconds {
			break
		}
		for pass := 0; pass < 2; pass++ {
			h.traced = (pass == 0) == (k%2 == 1)
			h.tr.on = h.traced // the plain execution records no spans
			if h.traced {
				h.acc = traced
				h.inputs = h.inputs[:0]
			} else {
				h.acc = plain
			}
			h.runUnit(k)
		}
		h.traced, h.tr.on = false, true
		for _, in := range h.inputs {
			if err := h.replay(in); err != nil {
				return nil, err
			}
		}
	}
	h.tr.finish(h.root)
	if err := h.tr.write(h.opt.TraceOut); err != nil {
		return nil, err
	}
	metrics, notes := h.layerMetrics(plain, traced)
	return &Report{Metrics: metrics, Notes: notes}, nil
}

// layerMetrics returns the per-layer metrics every workload exercises, and
// those only some do, marked absent where the run never called the layer.
func (h *harness) layerMetrics(plain, traced *acc) (metrics, notes []Metric) {
	l := &h.layers
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	next := per(l.nextDur, l.nextOps)
	step := per(l.stepDur, l.stepOps)
	serve := per(l.serveDur, l.serveReqs)
	cmdNs := per(l.dramDur, l.dramCmds)
	cmdsPerReq := ratio(l.dramCmds, l.serveReqs)
	run := per(l.runDur, l.runReqs)
	var newSys []float64
	for _, d := range traced.setups {
		newSys = append(newSys, float64(d.Nanoseconds())/1e6)
	}
	runs := int64(traced.runs)
	m := func(name string, v float64, unit string) Metric { return Metric{Name: name, Value: v, Unit: unit} }
	metrics = []Metric{
		m("workload.next_ns_per_op", next, "ns"),
		m("cpu.step_ns_per_op", step, "ns"),
		m("cpu.ops_per_step", ratio(l.stepOps, l.steps), "count"),
		m("cache.access_ns", per(l.cacheDur, l.cacheCalls), "ns"),
		m("cache.l1_hit_ratio", ratio(l.l1Hits, l.accesses), "ratio"),
		m("cache.l2_hit_ratio", ratio(l.l2Hits, l.accesses-l.l1Hits), "ratio"),
		m("smc.serve_ns_per_req", serve, "ns"),
		m("smc.self_ns_per_req", serve-cmdsPerReq*cmdNs, "ns"),
		m("smc.row_hit_ratio", ratio(l.rowHits, l.rowHits+l.rowMisses), "ratio"),
		m("smc.table_depth_mean", ratio(l.depthSum, l.serves), "count"),
		m("bender.build_ns_per_req", per(l.buildDur, l.programs), "ns"),
		m("bender.exec_ns_per_req", per(l.execDur, l.programs), "ns"),
		m("bender.instrs_per_req", ratio(l.instrs, l.programs), "count"),
		m("timing.apply_ns_per_cmd", per(l.applyDur, l.cmds), "ns"),
		m("timing.cmds_per_req", ratio(l.cmds, l.serveReqs), "count"),
		m("timing.violations", float64(l.violations), "count"),
		m("dram.cmd_ns", cmdNs, "ns"),
		m("dram.cmds_per_req", cmdsPerReq, "count"),
		m("core.run_ns_per_req", run, "ns"),
		m("core.unattributed_ns_per_req", run-ratio(l.stepOps, l.cpuReqs)*(next+step)-serve, "ns"),
		m("core.shard_rounds", ratio(traced.shardRounds, runs), "count"),
		m("core.shard_steps", ratio(traced.shardSteps, runs), "count"),
		m("core.alloc_bytes_per_req", ratio(int64(traced.allocBytes), traced.reqs), "B"),
		m("core.newsystem_ms", median(newSys), "ms"),
		m("trace.overhead_pct", 100*(traced.runDur.Seconds()/plain.runDur.Seconds()-1), "%"),
	}
	notes = []Metric{
		{Name: "core.settle_batch_len", Value: ratio(traced.settleDelivered, traced.settleBatches), Unit: "count",
			Absent: traced.settleBatches == 0},
		{Name: "techniques.profile_ns_per_row", Value: per(traced.profDur, traced.rows), Unit: "ns",
			Absent: traced.rows == 0},
		{Name: "core.stripe_ns_per_row", Value: per(l.stripeDur, l.stripeRows), Unit: "ns",
			Absent: l.stripeRows == 0},
	}
	return metrics, notes
}

// updateGolden runs one period of units of the chosen workload (or of
// every workload, for "all") at the default seed and rewrites their
// digests.
func updateGolden(opt Options, sc scale, stderr io.Writer) error {
	if opt.Seed != DefaultSeed {
		return fmt.Errorf("bench: golden digests are taken at seed %d, not %d", DefaultSeed, opt.Seed)
	}
	captured := map[string]string{}
	var prefixes []string
	for _, w := range workloads(opt.Seed, sc) {
		if opt.Workload != "all" && opt.Workload != w.name {
			continue
		}
		h := &harness{opt: opt, sc: sc, w: w, stderr: stderr, capture: captured, tr: newTracer(), acc: &acc{}}
		for k := 0; k < w.period; k++ {
			h.runUnit(k)
		}
		if h.failed > 0 {
			return fmt.Errorf("bench: %s: %d of %d checks failed; digests not updated", w.name, h.failed, h.ops)
		}
		prefixes = append(prefixes, opt.Scale+"/"+w.name+"/")
	}
	if len(prefixes) == 0 {
		return fmt.Errorf("bench: unknown workload %q", opt.Workload)
	}
	return writeGolden(prefixes, captured)
}

// Print writes the report: one "name value unit" line per metric and note
// ("name absent unit" for an absent one), then the result as one JSON
// object on the last line.
func Print(w io.Writer, rep *Report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range append(append([]Metric(nil), rep.Metrics...), rep.Notes...) {
		v := "absent"
		if !m.Absent {
			v = strconv.FormatFloat(m.Value, 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s %s %s\n", m.Name, v, m.Unit); err != nil {
			return err
		}
	}
	for _, m := range rep.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
