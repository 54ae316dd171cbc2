package core

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/snapshot"
	"easydram/internal/workload"
)

// Whole-system checkpointing. A
// checkpoint is taken only at a quiescent point: the engine's in-flight
// machinery — release queues, arrival rings, staged lists, controller tables,
// tile FIFOs and slabs — is empty, the processor holds no outstanding
// misses, and no fence is pending. Everything that remains is persistent
// state with a per-layer SaveState hook, so the blob is small and a restore
// needs no replay of in-flight transactions. The checkpoint-at-C-then-
// restore run is proven bit-identical to the uninterrupted run by the
// golden tests and the differential fuzzer's checkpoint-identity axis.

// ckptReq carries one checkpoint request through a run.
type ckptReq struct {
	// at is the earliest emulated processor cycle the checkpoint may fire.
	at clock.Cycles
	// taken marks that blob holds a capture.
	taken bool
	blob  []byte
}

// CompatKey canonically identifies everything that determines a run's
// bit-exact behaviour: a checkpoint restores only into a system whose key
// matches. The TRCD provider is a function, so only its presence is keyed;
// callers that install one must install an equivalent provider before
// restoring (the facade's profile store makes that reproducible).
func (c Config) CompatKey() string {
	sched := "fr-fcfs" // NewBaseController's default for a nil scheduler
	if c.Scheduler != nil {
		sched = c.Scheduler.Name()
	}
	return fmt.Sprintf("core:v5|scaling=%v|hwmc=%v|fpga=%v|proc=%v|cpu=%+v|hier=%+v|dram=%+v|costs=%+v|sched=%s|policy=%d|trcd=%v|ctrl=%d|topo=%+v|refresh=%v|faults=%+v|mit=%+v",
		c.Scaling, c.HardwareMC, c.FPGA, c.ProcPhys, c.CPU, c.Hier, c.DRAM,
		c.Costs, sched, c.Policy, c.TRCD != nil, c.ModeledCtrlLatency,
		c.Topology, c.RefreshEnabled, c.Faults, c.Mitigation)
}

// RunCheckpoint runs the workload like Run and additionally captures a
// checkpoint at the first quiescent point at or after `at` emulated
// processor cycles. The returned blob is nil — with no error — when the run
// finished before reaching such a point (e.g. `at` past the workload's
// end); the Result always covers the complete run.
func (s *System) RunCheckpoint(strm workload.Stream, at clock.Cycles) (Result, []byte, error) {
	if err := rejectNilStreams(strm); err != nil {
		return Result{}, nil, err
	}
	if s.cfg.Cores > 1 {
		strm.Close()
		return Result{}, nil, fmt.Errorf("core: checkpoints are not supported for multi-core systems (%d cores)", s.cfg.Cores)
	}
	ck := &ckptReq{at: at}
	res, err := s.run(strm, ck, nil)
	if err != nil {
		return Result{}, nil, err
	}
	return res, ck.blob, nil
}

// RunRestored resumes a checkpointed run: it validates the blob (format,
// per-section CRCs, compatibility key), loads every layer's state, and runs
// the remainder of the workload. The stream must be the same kernel the
// checkpointed run executed — the core fast-forwards a rebuilt stream to
// the recorded position. All errors are named snapshot errors; callers fall
// back to an uninterrupted run.
func (s *System) RunRestored(strm workload.Stream, data []byte) (Result, error) {
	if err := rejectNilStreams(strm); err != nil {
		return Result{}, err
	}
	if s.cfg.Cores > 1 {
		strm.Close()
		return Result{}, fmt.Errorf("core: checkpoints are not supported for multi-core systems (%d cores)", s.cfg.Cores)
	}
	r, err := snapshot.ParseExpect(data, snapshot.KindCheckpoint, s.cfg.CompatKey())
	if err != nil {
		strm.Close()
		return Result{}, err
	}
	return s.run(strm, nil, r)
}

// quiescent reports whether the engine holds no in-flight machinery: no
// outstanding requests, no undelivered responses, no staged issues, no
// pending fence or blocked load, and a quiescent core.
func (e *engine) quiescent() bool {
	if e.inflightLen() != 0 || e.ready.Len() != 0 || e.fencing || e.blockedOn != 0 {
		return false
	}
	for _, st := range e.staged {
		if len(st) != 0 {
			return false
		}
	}
	return e.core.Quiescent()
}

// capture serializes the full system into e.ckpt.blob. Read-only: the run
// it interrupts continues bit-identically to one never checkpointed.
func (e *engine) capture() {
	w := snapshot.NewWriter(snapshot.KindCheckpoint, e.cfg.CompatKey())

	var eng snapshot.Enc
	eng.Bool(e.cfg.Scaling)
	eng.Int(len(e.sys.chans))
	if e.cfg.Scaling {
		e.ts.SaveState(&eng)
	} else {
		eng.I64(int64(e.wallNow))
	}
	for _, v := range e.chain {
		eng.I64(int64(v))
	}
	eng.I64(e.fenceAt)
	eng.Int(len(e.marks))
	for _, m := range e.marks {
		eng.I64(int64(m))
	}
	w.Section("engine", eng.Payload())

	var cpuEnc snapshot.Enc
	e.core.SaveState(&cpuEnc)
	w.Section("cpu", cpuEnc.Payload())

	var cacheEnc snapshot.Enc
	e.sys.hier.SaveState(&cacheEnc)
	w.Section("cache", cacheEnc.Payload())

	var sysEnc snapshot.Enc
	sysEnc.U64(e.sys.hostReqID)
	w.Section("system", sysEnc.Payload())

	for i := range e.sys.chans {
		c := &e.sys.chans[i]
		var ch snapshot.Enc
		c.ctl.SaveState(&ch)
		c.tile.SaveState(&ch)
		c.mod.SaveState(&ch)
		w.Section(fmt.Sprintf("chan/%d", i), ch.Payload())
	}

	e.ckpt.blob = w.Bytes()
	e.ckpt.taken = true
}

// loadCheckpoint restores e.restore into the freshly assembled engine and
// system. Any malformed, truncated, or mismatched section yields a named
// error; the engine never starts half-restored.
func (e *engine) loadCheckpoint() error {
	r := e.restore

	d, err := e.sectionDec(r, "engine")
	if err != nil {
		return err
	}
	scaling := d.Bool()
	nch := d.Int()
	if d.Err() == nil {
		if scaling != e.cfg.Scaling {
			d.Failf("engine: snapshot scaling %v, config %v", scaling, e.cfg.Scaling)
		} else if nch != len(e.sys.chans) {
			d.Failf("engine: snapshot has %d channels, system has %d", nch, len(e.sys.chans))
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	if e.cfg.Scaling {
		e.ts.LoadState(d)
	} else {
		e.wallNow = clock.PS(d.I64())
	}
	for i := range e.chain {
		e.chain[i] = clock.PS(d.I64())
	}
	e.fenceAt = d.I64()
	nMarks := d.Int()
	if d.Err() == nil && (nMarks < 0 || nMarks > d.Remaining()/8) {
		d.Fail(snapshot.ErrTruncated)
	}
	for i := 0; i < nMarks && d.Err() == nil; i++ {
		e.marks = append(e.marks, clock.Cycles(d.I64()))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("engine section: %w", err)
	}

	d, err = e.sectionDec(r, "cpu")
	if err != nil {
		return err
	}
	e.core.LoadState(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("cpu section: %w", err)
	}

	d, err = e.sectionDec(r, "cache")
	if err != nil {
		return err
	}
	e.sys.hier.LoadState(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("cache section: %w", err)
	}

	d, err = e.sectionDec(r, "system")
	if err != nil {
		return err
	}
	e.sys.hostReqID = d.U64()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("system section: %w", err)
	}

	for i := range e.sys.chans {
		c := &e.sys.chans[i]
		name := fmt.Sprintf("chan/%d", i)
		d, err = e.sectionDec(r, name)
		if err != nil {
			return err
		}
		c.ctl.LoadState(d)
		c.tile.LoadState(d)
		c.mod.LoadState(d)
		if err := d.Finish(); err != nil {
			return fmt.Errorf("%s section: %w", name, err)
		}
	}
	return nil
}

func (e *engine) sectionDec(r *snapshot.Reader, name string) (*snapshot.Dec, error) {
	p, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	return snapshot.NewDec(p), nil
}
