package bench

import (
	"fmt"
	"sort"
	"time"

	"easydram/internal/bender"
	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/cpu"
	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
	"easydram/internal/smc"
	"easydram/internal/techniques"
	"easydram/internal/tile"
	"easydram/internal/timing"
	"easydram/internal/workload"
)

// The layer replays. Each measures one layer from outside: it feeds the
// layer's public functions the inputs a traced end-to-end run had, on fresh
// state, with no other layer in the loop, and reads the clock once per
// spanBatch calls. The cpu replay produces the request stream the smc
// replay consumes; the smc replay records the DRAM commands (through a
// recording dram.Device) that the bender, timing and dram replays consume.

// replayReqs is the request prefix of each input the smc, bender, timing
// and dram replays consume.
const replayReqs = 1 << 18

// layerStats accumulates the replay measurements of a traced run.
type layerStats struct {
	nextDur time.Duration
	nextOps int64

	stepDur              time.Duration // Step time net of refilling its op buffer
	stepOps, steps       int64
	cpuReqs              int64
	cacheDur             time.Duration
	cacheCalls, accesses int64
	l1Hits, l2Hits       int64

	serveDur                    time.Duration
	serveReqs, serves, depthSum int64
	rowHits, rowMisses          int64

	buildDur, execDur time.Duration
	programs, instrs  int64

	applyDur         time.Duration
	cmds, violations int64

	dramDur  time.Duration
	dramCmds int64

	runDur  time.Duration
	runReqs int64

	stripeDur  time.Duration
	stripeRows int64
}

// replayInput is one traced execution's inputs, kept for the replays.
type replayInput struct {
	key     string
	op      *op
	cfg     core.Config
	streams func() []workload.Stream
	reqsIn  int64 // the end-to-end run's Tile.RequestsIn
	parent  int   // the run's core.Run span
}

// addInput accounts a traced run's time and keeps its inputs for the
// replays, once per input key within a unit.
func (h *harness) addInput(spec runSpec, o *op, res core.Result, dur time.Duration, span int) {
	h.layers.runDur += dur
	h.layers.runReqs += res.Tile.RequestsIn
	for _, in := range h.inputs {
		if in.key == spec.input {
			return
		}
	}
	h.inputs = append(h.inputs, &replayInput{
		key: spec.input, op: o, cfg: spec.config(), streams: spec.streams,
		reqsIn: res.Tile.RequestsIn, parent: span,
	})
}

// replay runs every layer replay over one input.
func (h *harness) replay(in *replayInput) error {
	h.replayStreams(in)
	reqs, err := h.replayCPU(in)
	if err != nil {
		return err
	}
	h.replayCache(in)
	chans, err := h.replaySMC(in, reqs)
	if err != nil {
		return err
	}
	for _, ch := range chans {
		if err := h.replayBender(in, ch); err != nil {
			return err
		}
		h.replayTiming(in, ch)
		h.replayDRAM(in, ch)
	}
	return nil
}

// replayStreams drains each op stream alone (workload.Stream.Next).
func (h *harness) replayStreams(in *replayInput) {
	l := &h.layers
	var op workload.Op
	for _, s := range in.streams() {
		for more := true; more; {
			n := 0
			t0 := time.Now()
			for n < spanBatch && s.Next(&op) {
				n++
			}
			t1 := time.Now()
			more = n == spanBatch
			l.nextDur += t1.Sub(t0)
			l.nextOps += int64(n)
			h.tr.add("workload.Stream.Next", in.parent, t0, t1)
		}
		s.Close()
	}
}

// bufferedStream hands a core ops from a buffer it refills spanBatch ops at
// a time, timing the refills, so the cpu replay can subtract the producer's
// time from Step's.
type bufferedStream struct {
	src    workload.Stream
	buf    []workload.Op
	idx    int
	refill time.Duration
	ops    int64
	last   workload.Op // the op handed out last
}

func (b *bufferedStream) Next(op *workload.Op) bool {
	if b.idx == len(b.buf) {
		t0 := time.Now()
		b.buf = b.buf[:0]
		var o workload.Op
		for len(b.buf) < spanBatch && b.src.Next(&o) {
			b.buf = append(b.buf, o)
		}
		b.refill += time.Since(t0)
		b.idx = 0
		if len(b.buf) == 0 {
			return false
		}
	}
	*op = b.buf[b.idx]
	b.last = *op
	b.idx++
	b.ops++
	return true
}

func (b *bufferedStream) Close() { b.src.Close() }

// replayReq is one request the cpu replay issued.
type replayReq struct {
	mem.Request
	// dep marks the fill of a dependent load, which the core could not
	// issue before the loads ahead of it were answered.
	dep bool
}

// replayCPU steps fresh cores over fresh caches with a memory stub that
// answers each request right after the step that issued it and completes
// every fence at once (cpu.Core.Step). It returns the first replayReqs
// requests issued, in issue order, for the smc replay.
func (h *harness) replayCPU(in *replayInput) ([]replayReq, error) {
	l := &h.layers
	srcs := in.streams()
	streams := make([]*bufferedStream, len(srcs))
	cores := make([]*cpu.Core, len(srcs))
	views, err := newCaches(in.cfg, len(srcs))
	if err != nil {
		return nil, fmt.Errorf("bench: cpu replay: %w", err)
	}
	for i, s := range srcs {
		streams[i] = &bufferedStream{src: s, buf: make([]workload.Op, 0, spanBatch)}
		c, err := cpu.New(in.cfg.CPU, views[i], streams[i])
		if err != nil {
			return nil, fmt.Errorf("bench: cpu replay: %w", err)
		}
		if len(srcs) > 1 {
			c.SetIDSpace(uint64(i+1), uint64(len(srcs)))
		}
		cores[i] = c
	}
	defer func() {
		for _, s := range streams {
			s.Close()
		}
	}()

	var reqs []replayReq
	var issued int64
	now := make([]clock.Cycles, len(cores))
	done := make([]bool, len(cores))
	live := len(cores)
	for live > 0 {
		var refill0 time.Duration
		for _, s := range streams {
			refill0 += s.refill
		}
		n := 0
		t0 := time.Now()
		for n < spanBatch && live > 0 {
			for i, c := range cores {
				if done[i] {
					continue
				}
				o := c.Step(now[i], 0)
				n++
				now[i] += o.Cycles
				for j, r := range o.Reqs {
					issued++
					if len(reqs) < replayReqs {
						// A step that misses ends at the missing op, so
						// the op handed out last issued the fill.
						dep := j == 0 && r.Kind == mem.Read && streams[i].last.Dep
						reqs = append(reqs, replayReq{r, dep})
					}
					if !r.Posted {
						c.Deliver(r.ID)
					}
				}
				if o.WaitID != 0 {
					c.Deliver(o.WaitID)
				}
				if o.Fence {
					c.FenceDone()
				}
				if o.Finished {
					done[i] = true
					live--
				}
			}
		}
		t1 := time.Now()
		var refill time.Duration
		for _, s := range streams {
			refill += s.refill
		}
		l.stepDur += t1.Sub(t0) - (refill - refill0)
		l.steps += int64(n)
		h.tr.add("cpu.Core.Step", in.parent, t0, t1)
	}
	for _, s := range streams {
		l.stepOps += s.ops
	}
	l.cpuReqs += issued
	if len(cores) == 1 {
		if issued != in.reqsIn {
			h.fail(in.op, "cpu replay issued %d requests, the run received %d", issued, in.reqsIn)
		} else {
			h.replayChecks++
		}
	}
	return reqs, nil
}

// newCaches builds fresh caches for n op streams as core.NewSystem does (a
// System does not expose its caches): a two-level hierarchy for one, one
// core's view of a shared multi-core hierarchy for each of several.
func newCaches(cfg core.Config, n int) ([]cpu.CacheView, error) {
	if n == 1 {
		hier, err := cache.NewHierarchy(cfg.Hier)
		if err != nil {
			return nil, err
		}
		return []cpu.CacheView{hier}, nil
	}
	mh, err := cache.NewMultiHierarchy(cfg.Hier, n)
	if err != nil {
		return nil, err
	}
	views := make([]cpu.CacheView, n)
	for i := range views {
		views[i] = mh.View(i)
	}
	return views, nil
}

// replayCache feeds each stream's memory ops to fresh caches
// (cache.Hierarchy.Access and Flush; one core view per stream on a
// multi-core system). Ops are gathered spanBatch at a time outside the
// timed loop.
func (h *harness) replayCache(in *replayInput) {
	l := &h.layers
	srcs := in.streams()
	views, err := newCaches(in.cfg, len(srcs))
	if err != nil {
		h.fail(in.op, "cache replay: %v", err)
		return
	}
	buf := make([]workload.Op, 0, spanBatch)
	for i, s := range srcs {
		v := views[i]
		for more := true; more; {
			buf = buf[:0]
			var op workload.Op
			for len(buf) < spanBatch && s.Next(&op) {
				switch op.Kind {
				case workload.OpLoad, workload.OpStore, workload.OpFlush:
					buf = append(buf, op)
				}
			}
			more = len(buf) == spanBatch
			var l1, l2, acc int64
			t0 := time.Now()
			for _, op := range buf {
				if op.Kind == workload.OpFlush {
					v.Flush(op.Addr)
					continue
				}
				acc++
				switch lvl, _ := v.Access(op.Addr, op.Kind == workload.OpStore); lvl {
				case 1:
					l1++
				case 2:
					l2++
				}
			}
			t1 := time.Now()
			l.cacheDur += t1.Sub(t0)
			l.cacheCalls += int64(len(buf))
			l.accesses += acc
			l.l1Hits += l1
			l.l2Hits += l2
			h.tr.add("cache.Hierarchy.Access", in.parent, t0, t1)
		}
		s.Close()
	}
}

// cmdRec is one DRAM command as the smc replay issued it.
type cmdRec struct {
	cmd       timing.Cmd
	bank, arg int // arg is the row of an ACT, the column of a RD or WR
	t, rcd    clock.PS
}

// recDevice is a dram.Device that records every command before passing it
// to the module it wraps.
type recDevice struct {
	mod *dram.Module
	log []cmdRec
}

func (d *recDevice) Activate(bank, row int, t, rcd clock.PS) (bool, bool) {
	d.log = append(d.log, cmdRec{cmd: timing.CmdACT, bank: bank, arg: row, t: t, rcd: rcd})
	return d.mod.Activate(bank, row, t, rcd)
}

func (d *recDevice) Precharge(bank int, t clock.PS) {
	d.log = append(d.log, cmdRec{cmd: timing.CmdPRE, bank: bank, t: t})
	d.mod.Precharge(bank, t)
}

func (d *recDevice) Read(bank, col int, t clock.PS, dst []byte) (bool, error) {
	d.log = append(d.log, cmdRec{cmd: timing.CmdRD, bank: bank, arg: col, t: t})
	return d.mod.Read(bank, col, t, dst)
}

func (d *recDevice) Write(bank, col int, t clock.PS, src []byte) error {
	d.log = append(d.log, cmdRec{cmd: timing.CmdWR, bank: bank, arg: col, t: t})
	return d.mod.Write(bank, col, t, src)
}

func (d *recDevice) Refresh(t clock.PS) {
	d.log = append(d.log, cmdRec{cmd: timing.CmdREF, t: t})
	d.mod.Refresh(t)
}

func (d *recDevice) Timing() timing.Params { return d.mod.Timing() }

var _ dram.Device = (*recDevice)(nil)

// chanLog is one channel's smc replay output: its commands, and where each
// served request's program ends in them.
type chanLog struct {
	index int
	cmds  []cmdRec
	ends  []int
	// violations is what the module's own timing checkers counted.
	violations int64
}

// chanSeed is the per-channel seed core.NewSystem derives from the DRAM
// seed for a channel's fault seams.
func chanSeed(cfg core.Config, ch int) uint64 {
	return cfg.DRAM.Seed + uint64(ch)*0x9e3779b97f4a7c15
}

// newChannel builds channel ch of sys as core.NewSystem does — a System
// does not expose its controllers or tiles — except that the tile drives
// dev, which wraps the channel's module. The controller shares the
// scheduler instance of the system's own channel-0 controller, which the
// replay never runs.
func newChannel(sys *core.System, ch int, dev dram.Device) (*smc.BaseController, *smc.Env, error) {
	cfg := sys.Config()
	sched := cfg.Scheduler
	if cs, ok := sched.(smc.ChannelScheduler); ok && ch > 0 {
		sched = cs.CloneForChannel()
	}
	mit, err := fault.NewMitigator(cfg.Mitigation, cfg.DRAM.RowsPerBank, ch)
	if err != nil {
		return nil, nil, err
	}
	mod := sys.Module(ch)
	ctl, err := smc.NewBaseController(smc.Config{
		Mapper:         sys.Mapper(),
		Scheduler:      sched,
		TRCD:           cfg.TRCD,
		RefreshEnabled: cfg.RefreshEnabled,
		Policy:         cfg.Policy,
		Ranks:          sys.Topology().Ranks,
		Recovery:       cfg.Faults.Recovery,
		Mitigation:     mit,
		RowsPerBank:    cfg.DRAM.RowsPerBank,
		QuarantineSeed: chanSeed(cfg, ch),
	}, mod.Timing(), mod.Banks())
	if err != nil {
		return nil, nil, err
	}
	t := tile.NewDevice(dev, cfg.Costs)
	if cfg.Faults.Link.Enabled() {
		t.SetFaultLink(fault.NewLinkModel(cfg.Faults.Link, chanSeed(cfg, ch)))
	}
	return ctl, smc.NewEnv(t), nil
}

// replaySMC serves the recorded requests through the fresh per-channel
// controllers of a fresh system (smc.BaseController.ServeOne), keeping at
// most the core's MLP requests pending per channel and holding a dependent
// load's fill back until the channel's table has drained, as the core would.
func (h *harness) replaySMC(in *replayInput, reqs []replayReq) ([]chanLog, error) {
	l := &h.layers
	sys, err := core.NewSystem(in.cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: smc replay: %w", err)
	}
	perChan := make([][]replayReq, sys.Topology().Channels)
	for _, r := range reqs {
		ch := sys.Mapper().Map(r.Addr).Chan
		perChan[ch] = append(perChan[ch], r)
	}
	mlp := in.cfg.CPU.MLP
	if mlp < 1 {
		mlp = 1
	}
	var out []chanLog
	for ch, rs := range perChan {
		if len(rs) == 0 {
			continue
		}
		mod := sys.Module(ch)
		dev := &recDevice{mod: mod, log: make([]cmdRec, 0, 4*len(rs))}
		ctl, env, err := newChannel(sys, ch, dev)
		if err != nil {
			return nil, fmt.Errorf("bench: smc replay: %w", err)
		}
		cl := chanLog{index: ch, ends: make([]int, 0, len(rs))}
		next, pending := 0, 0
		for next < len(rs) || pending > 0 {
			n := 0
			t0 := time.Now()
			for ; n < spanBatch && (next < len(rs) || pending > 0); n++ {
				for pending < mlp && next < len(rs) && !(rs[next].dep && pending > 0) {
					env.Tile().PushRequest(&rs[next].Request)
					next++
					pending++
				}
				l.depthSum += int64(pending)
				env.Reset(0)
				worked, err := ctl.ServeOne(env)
				if err != nil {
					return nil, fmt.Errorf("bench: smc replay: %w", err)
				}
				if !worked {
					return nil, fmt.Errorf("bench: smc replay: controller idle with %d requests pending", pending)
				}
				pending -= len(env.Responses())
				cl.ends = append(cl.ends, len(dev.log))
			}
			t1 := time.Now()
			l.serveDur += t1.Sub(t0)
			l.serves += int64(n)
			h.tr.add("smc.ServeOne", in.parent, t0, t1)
		}
		st := ctl.Stats()
		l.serveReqs += int64(len(rs))
		l.rowHits += st.RowHits
		l.rowMisses += st.RowMisses
		cl.cmds = dev.log
		cl.violations = mod.Stats().TimingViolations
		out = append(out, cl)
	}
	return out, nil
}

// freshModule returns channel ch's module of a fresh system.
func freshModule(cfg core.Config, ch int) (*dram.Module, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Module(ch), nil
}

// replayBender rebuilds each served request's program from its recorded
// commands (bender.Builder) and executes it on a fresh module at the
// recorded start time (bender.Engine.ExecDiscardReads). A batch's programs
// are all built, then all executed, so the two are timed apart.
func (h *harness) replayBender(in *replayInput, cl chanLog) error {
	l := &h.layers
	mod, err := freshModule(in.cfg, cl.index)
	if err != nil {
		return fmt.Errorf("bench: bender replay: %w", err)
	}
	p := mod.Timing()
	period := p.Bus.Period()
	eng := bender.NewEngine(mod, 0)
	builders := make([]*bender.Builder, spanBatch)
	for i := range builders {
		builders[i] = bender.NewBuilder(p)
	}
	starts := make([]clock.PS, spanBatch)
	for lo := 0; lo < len(cl.ends); lo += spanBatch {
		hi := min(lo+spanBatch, len(cl.ends))
		t0 := time.Now()
		for r := lo; r < hi; r++ {
			b := builders[r-lo]
			b.Reset()
			first := 0
			if r > 0 {
				first = cl.ends[r-1]
			}
			cmds := cl.cmds[first:cl.ends[r]]
			for i, c := range cmds {
				switch c.cmd {
				case timing.CmdACT:
					b.ACTWithRCD(c.bank, c.arg, c.rcd)
				case timing.CmdPRE:
					b.PRE(c.bank)
				case timing.CmdRD:
					b.RD(c.bank, c.arg)
				case timing.CmdWR:
					b.WR(c.bank, c.arg, nil)
				case timing.CmdREF:
					b.REF()
				}
				// Each command holds the bus one period; wait out the rest
				// of the recorded gap to the next.
				if i+1 < len(cmds) {
					if gap := cmds[i+1].t - c.t; gap > period {
						b.Wait(gap - period)
					}
				}
			}
			if len(cmds) > 0 {
				starts[r-lo] = cmds[0].t
			}
		}
		t1 := time.Now()
		for r := lo; r < hi; r++ {
			b := builders[r-lo]
			if b.Len() == 0 {
				continue
			}
			if _, err := eng.ExecDiscardReads(b.Program(), starts[r-lo], b.WriteBuf()); err != nil {
				return fmt.Errorf("bench: bender replay: %w", err)
			}
		}
		t2 := time.Now()
		l.buildDur += t1.Sub(t0)
		l.execDur += t2.Sub(t1)
		h.tr.add("bender.Builder", in.parent, t0, t1)
		h.tr.add("bender.Engine.Exec", in.parent, t1, t2)
		for r := lo; r < hi; r++ {
			l.instrs += int64(builders[r-lo].Len())
		}
	}
	l.programs += int64(len(cl.ends))
	return nil
}

// replayTiming applies the recorded commands to fresh per-rank timing
// checkers (timing.Checker.ApplyCount).
func (h *harness) replayTiming(in *replayInput, cl chanLog) {
	l := &h.layers
	d := in.cfg.DRAM
	banksPerRank := d.BankGroups * d.BanksPerGroup
	checkers := make([]*timing.Checker, in.cfg.Topology.Normalize().Ranks)
	for i := range checkers {
		checkers[i] = timing.NewChecker(d.Timing, d.BankGroups, d.BanksPerGroup)
	}
	var viol int64
	d0 := h.timeBatches("timing.Checker.ApplyCount", in.parent, len(cl.cmds), func(i int) {
		c := &cl.cmds[i]
		if c.cmd == timing.CmdREF {
			for _, ck := range checkers {
				viol += int64(ck.ApplyCount(c.cmd, 0, c.t, 0))
			}
			return
		}
		viol += int64(checkers[c.bank/banksPerRank].ApplyCount(c.cmd, c.bank%banksPerRank, c.t, c.rcd))
	})
	l.applyDur += d0
	l.cmds += int64(len(cl.cmds))
	l.violations += viol
	if viol != cl.violations {
		h.fail(in.op, "timing replay counted %d violations on channel %d, the module %d", viol, cl.index, cl.violations)
	}
}

// replayDRAM issues the recorded commands to a fresh module (the
// dram.Device methods).
func (h *harness) replayDRAM(in *replayInput, cl chanLog) {
	mod, err := freshModule(in.cfg, cl.index)
	if err != nil {
		h.fail(in.op, "dram replay: %v", err)
		return
	}
	var readErr error
	d := h.timeBatches("dram.Device", in.parent, len(cl.cmds), func(i int) {
		c := &cl.cmds[i]
		switch c.cmd {
		case timing.CmdACT:
			mod.Activate(c.bank, c.arg, c.t, c.rcd)
		case timing.CmdPRE:
			mod.Precharge(c.bank, c.t)
		case timing.CmdRD:
			if _, err := mod.Read(c.bank, c.arg, c.t, nil); err != nil && readErr == nil {
				readErr = err
			}
		case timing.CmdWR:
			if err := mod.Write(c.bank, c.arg, c.t, nil); err != nil && readErr == nil {
				readErr = err
			}
		case timing.CmdREF:
			mod.Refresh(c.t)
		}
	})
	if readErr != nil {
		h.fail(in.op, "dram replay: %v", readErr)
	}
	h.layers.dramDur += d
	h.layers.dramCmds += int64(len(cl.cmds))
}

// timeBatches calls fn for each of [0, n) in batches of spanBatch, records
// one span per batch, and returns the total time.
func (h *harness) timeBatches(name string, parent, n int, fn func(i int)) time.Duration {
	var total time.Duration
	for lo := 0; lo < n; lo += spanBatch {
		hi := min(lo+spanBatch, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		t1 := time.Now()
		total += t1.Sub(t0)
		h.tr.add(name, parent, t0, t1)
	}
	return total
}

// stripeRows is the bank-stripe length techniques.ProfileWeakRows requests
// per host round-trip; the stripe replay issues the same stripes.
const stripeRows = 8

// replayStripes profiles [start, end) again on a fresh system, calling
// core.System.ProfileRowStripe directly on the stripes ProfileWeakRows
// issues (consecutive same-bank rows, stripeRows at a time).
func (h *harness) replayStripes(cfg core.Config, start, end uint64, weak int, o *op) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		h.fail(o, "stripe replay: %v", err)
		return
	}
	m := sys.Mapper()
	rowBytes := uint64(m.RowBytes())
	type bankKey struct{ ch, bank int }
	rows := map[bankKey][]int{}
	var order []bankKey
	for key := start; key < end; key += rowBytes {
		a := m.Map(key)
		k := bankKey{a.Chan, a.Bank}
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		rows[k] = append(rows[k], a.Row)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].ch != order[j].ch {
			return order[i].ch < order[j].ch
		}
		return order[i].bank < order[j].bank
	})
	type stripe struct {
		key uint64
		n   int
	}
	var stripes []stripe
	for _, k := range order {
		rs := rows[k]
		sort.Ints(rs)
		for i := 0; i < len(rs); {
			n := 1
			for n < stripeRows && i+n < len(rs) && rs[i+n] == rs[i]+n {
				n++
			}
			stripes = append(stripes, stripe{m.Unmap(dram.Addr{Chan: k.ch, Bank: k.bank, Row: rs[i]}), n})
			i += n
		}
	}
	cols := int(rowBytes / dram.LineBytes)
	var weakSeen, rowsSeen int
	var stripeErr error
	d := h.timeBatches("core.ProfileRowStripe", h.root, len(stripes), func(i int) {
		lines, _, err := sys.ProfileRowStripe(stripes[i].key, stripes[i].n, techniques.ReducedTRCD)
		if err != nil {
			if stripeErr == nil {
				stripeErr = err
			}
			return
		}
		for _, ok := range lines {
			rowsSeen++
			if ok != cols {
				weakSeen++
			}
		}
	})
	h.layers.stripeDur += d
	h.layers.stripeRows += int64(rowsSeen)
	switch {
	case stripeErr != nil:
		h.fail(o, "stripe replay: %v", stripeErr)
	case weakSeen != weak:
		h.fail(o, "stripe replay found %d weak rows, the profile %d", weakSeen, weak)
	}
}
