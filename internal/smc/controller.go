package smc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"easydram/internal/bender"
	"easydram/internal/bloom"
	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
	"easydram/internal/timing"
)

// TRCDProvider returns the tRCD to use when activating a row (the
// tRCD-reduction technique's scheduler hook, §8.2). Returning 0 selects the
// nominal value.
type TRCDProvider func(a dram.Addr) clock.PS

// PagePolicy selects the controller's row-buffer management.
type PagePolicy uint8

// Page policies.
const (
	// OpenPage leaves the row open after a column access, betting on row
	// locality (the default; what FR-FCFS exploits).
	OpenPage PagePolicy = iota
	// ClosedPage precharges immediately after each access, betting against
	// locality (lower row-conflict latency for random traffic).
	ClosedPage
)

// Config parameterises the base controller.
type Config struct {
	Mapper    Mapper
	Scheduler Scheduler
	// TRCD, when set, is consulted on every activation.
	TRCD TRCDProvider
	// RefreshEnabled issues REF every tREFI of emulated time.
	RefreshEnabled bool
	// Policy selects open-page (default) or closed-page row management.
	Policy PagePolicy
	// Ranks is the number of ranks sharing this controller's channel bus
	// (0 or 1 = single rank). With more than one, consecutive CAS commands
	// to different ranks pay the shared bus's rank-to-rank turnaround
	// (tBL + tRTRS), charged in modeled time and spaced on the Bender
	// program.
	Ranks int
	// Recovery enables the verify-and-retry read path: unreliable readbacks
	// are re-read with bounded attempts and exponential emulated-time
	// backoff, failed Bender launches are re-flushed the same way, and rows
	// that exhaust their retries are quarantined into a Bloom filter and
	// remapped to a per-bank spare region on every later access.
	Recovery fault.RecoveryConfig
	// Mitigation, when non-nil, is the channel's RowHammer mitigation
	// policy: it observes every row activation and nominates victim rows
	// the controller refreshes (ACT + tRAS + PRE + tRP, charged as
	// occupancy) before opening the target row.
	Mitigation fault.Mitigator
	// RowsPerBank is the bank's row count: the quarantine remapper places
	// the spare-row region by it (required when Recovery.Enabled), and
	// bank-stripe profiling requests must end within it.
	RowsPerBank int
	// QuarantineSeed seeds the quarantine Bloom filter's hash functions.
	QuarantineSeed uint64
}

// BaseController is the standard EasyDRAM software memory controller: a
// request table, a pluggable scheduler, open-row tracking, and service
// routines for reads, writes, RowClone, and profiling requests.
//
// The request table is a slice of Entry in arrival order: each request's
// DRAM coordinates are decoded once at ingest and new entries are
// appended, so index 0 is always the oldest and a scheduler's first
// eligible entry is its oldest. Most picks are at or near the front (the
// oldest request, or the oldest row hit), so a served entry is removed by
// shifting the older entries up a slot, and table is a window of tableBuf
// that each removal narrows from the front; appendEntry slides it back to
// the start of the array once it reaches the end. The shift is a loop
// rather than copy: on a table this short (bounded by the cores'
// outstanding misses) the builtin's memmove call costs more than the moves
// it makes. Entry.Seq (a monotone counter) records arrival for custom
// schedulers. Entries carry a slot into the tile's pooled request slab
// instead of a copy of the request itself.
type BaseController struct {
	cfg      Config
	p        timing.Params
	openRows []int
	table    []Entry
	tableBuf []Entry
	nextSeq  uint64
	// profilePattern is the known data pattern used by profiling requests.
	profilePattern [dram.LineBytes]byte

	refreshDue clock.PS

	// statelessSched marks the built-in stateless schedulers, for which a
	// one-entry table needs no Pick call.
	statelessSched bool

	// rankShift splits a channel-global bank index into its rank (bank >>
	// rankShift); lastCASRank tracks the rank of the previous column
	// command for the rank-to-rank turnaround. rankShift is 0 when the
	// channel has a single rank, which disables the tracking entirely.
	rankShift   uint
	lastCASRank int

	// preWait and actWait are the WAITs after a PRE and after a
	// nominal-tRCD ACT, in bus cycles, converted once at construction
	// instead of on every access.
	preWait, actWait int

	// recov is the normalized recovery config; mit the channel's mitigation
	// policy (nil = none) with mitBuf its reused victim buffer; quarantine
	// the Bloom filter of given-up rows (lazily created on first
	// quarantine, so fault-free runs never pay its lookup charge) with
	// spareBase the first spare-region row quarantined rows remap into.
	recov      fault.RecoveryConfig
	mit        fault.Mitigator
	mitBuf     []int
	quarantine *bloom.Filter
	spareBase  int

	stats ControllerStats
}

// ControllerStats counts controller events.
type ControllerStats struct {
	Served     int64
	Reads      int64
	Writes     int64
	RowClones  int64
	BitwiseOps int64
	Profiles   int64
	// ProfileRows counts rows covered by whole-row profiling requests (the
	// §8.1 fast path; a bank-stripe request counts each row it covers);
	// ProfiledLines counts the cache lines those requests covered.
	ProfileRows   int64
	ProfiledLines int64
	Refreshes     int64
	RowHits       int64
	RowMisses     int64
	// BurstsServed and BurstedRequests are always zero: the controller
	// serves one request per step. They remain only because
	// bench/testdata/golden.json pins the SHA-256 of the JSON-encoded
	// core.Result, which includes these two fields.
	BurstsServed    int64
	BurstedRequests int64
	// RankSwitches counts column accesses that paid the shared bus's
	// rank-to-rank turnaround (always zero on a single-rank channel).
	RankSwitches int64
	// Retries counts verify-and-retry re-reads plus re-flushed Bender
	// launches; RetryGiveUps counts requests that exhausted their retry
	// budget. QuarantinedRows counts rows retired into the quarantine
	// filter after giving up, RemappedAccesses the accesses redirected to
	// the spare region, and MitigationRefreshes the victim-row refreshes
	// the mitigation policy inserted. All stay zero without fault
	// injection.
	Retries             int64
	RetryGiveUps        int64
	QuarantinedRows     int64
	RemappedAccesses    int64
	MitigationRefreshes int64
}

// Accumulate adds o's counters into s (multi-channel systems sum their
// per-channel controller statistics into one Result).
func (s *ControllerStats) Accumulate(o ControllerStats) {
	s.Served += o.Served
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowClones += o.RowClones
	s.BitwiseOps += o.BitwiseOps
	s.Profiles += o.Profiles
	s.ProfileRows += o.ProfileRows
	s.ProfiledLines += o.ProfiledLines
	s.Refreshes += o.Refreshes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RankSwitches += o.RankSwitches
	s.Retries += o.Retries
	s.RetryGiveUps += o.RetryGiveUps
	s.QuarantinedRows += o.QuarantinedRows
	s.RemappedAccesses += o.RemappedAccesses
	s.MitigationRefreshes += o.MitigationRefreshes
}

// NewBaseController builds the controller for a chip with the given timing.
func NewBaseController(cfg Config, p timing.Params, banks int) (*BaseController, error) {
	if cfg.Mapper == nil {
		return nil, fmt.Errorf("smc: controller needs a mapper")
	}
	if cfg.RowsPerBank <= 0 {
		return nil, fmt.Errorf("smc: controller needs RowsPerBank > 0, got %d", cfg.RowsPerBank)
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = FRFCFS{}
	}
	open := make([]int, banks)
	for i := range open {
		open[i] = -1
	}
	c := &BaseController{cfg: cfg, p: p, openRows: open, refreshDue: p.TREFI, lastCASRank: -1}
	c.preWait = int(p.Bus.CyclesCeil(p.TRP - p.Bus.Period()))
	c.actWait = int(p.Bus.CyclesCeil(p.TRCD - p.Bus.Period()))
	if cfg.Ranks > 1 {
		if banks%cfg.Ranks != 0 || banks&(banks-1) != 0 {
			return nil, fmt.Errorf("smc: %d banks across %d ranks must be a power-of-two split", banks, cfg.Ranks)
		}
		c.rankShift = uint(bits.TrailingZeros(uint(banks / cfg.Ranks)))
	}
	c.recov = cfg.Recovery.Normalize()
	c.mit = cfg.Mitigation
	if c.recov.Enabled {
		if cfg.RowsPerBank <= c.recov.SpareRows {
			return nil, fmt.Errorf("smc: recovery needs RowsPerBank (%d) above its %d spare rows", cfg.RowsPerBank, c.recov.SpareRows)
		}
		c.spareBase = cfg.RowsPerBank - c.recov.SpareRows
	}
	c.statelessSched = Stateless(cfg.Scheduler)
	for i := range c.profilePattern {
		c.profilePattern[i] = 0xA5
	}
	return c, nil
}

// Stats returns a snapshot of controller counters.
func (c *BaseController) Stats() ControllerStats { return c.stats }

// Mapper returns the physical-to-DRAM address mapper in use.
func (c *BaseController) Mapper() Mapper { return c.cfg.Mapper }

// Pending reports the number of requests buffered in the controller's
// software request table.
func (c *BaseController) Pending() int { return len(c.table) }

// OpenRow reports the controller's view of the open row in bank.
func (c *BaseController) OpenRow(bank int) int { return c.openRows[bank] }

// RefreshEnabled reports whether periodic refresh is configured.
func (c *BaseController) RefreshEnabled() bool { return c.cfg.RefreshEnabled }

// NextRefreshDue reports when the next REF command is due (emulated time).
func (c *BaseController) NextRefreshDue() clock.PS { return c.refreshDue }

// ServeRefresh issues one REF command sequence (precharge-all + REF) and
// advances the refresh schedule. The engine decides *when* a due refresh is
// accounted: deterministically against the controller's service timeline,
// so both the time-scaled and the reference engines charge it identically.
func (c *BaseController) ServeRefresh(env *Env) error {
	b := env.Tile().Builder()
	for bank := range c.openRows {
		if c.openRows[bank] >= 0 {
			b.PRE(bank)
			c.openRows[bank] = -1
		}
	}
	b.Wait(c.p.TRP)
	b.REF()
	if _, _, err := c.launch(env, true); err != nil {
		return err
	}
	env.AddService(c.p.TRP+c.p.TRFC, c.p.TRP+c.p.TRFC)
	c.refreshDue += c.p.TREFI
	c.stats.Refreshes++
	return nil
}

// ServeOne performs one iteration of the controller loop (Listing 1's C++
// loop, expressed against the EasyAPI Env): ingest new requests, make one
// scheduling decision, operate DRAM, and respond. It reports whether any
// request was served.
func (c *BaseController) ServeOne(env *Env) (bool, error) {
	costs := env.Tile().Costs()
	env.Charge(costs.Poll)

	// Transfer new requests from the hardware buffers to the software
	// request table (Figure 6 step 5), decoding DRAM coordinates once here
	// rather than on every scheduling decision. The modeled MapAddr cost is
	// still charged at service time; this is host-side work only. The
	// request bytes stay in the tile's slab — the table entry carries the
	// slot and the decoded hot fields.
	t := env.Tile()
	for {
		slot, ok := t.PopRequest()
		if !ok {
			break
		}
		env.Charge(costs.ReceiveRequest)
		req := t.Req(slot)
		ent := c.appendEntry()
		ent.Slot, ent.ID, ent.Kind, ent.Seq = slot, req.ID, req.Kind, c.nextSeq
		c.cfg.Mapper.MapTo(req.Addr, &ent.Addr)
		c.nextSeq++
		switch req.Kind {
		case mem.RowClone, mem.Bitwise:
			c.cfg.Mapper.MapTo(req.Src, &ent.Src)
		}
		// The chip has no row past the bank's last to drive: reject such
		// an address here, before it reaches a Bender program. Src is zero
		// for every kind without a source operand.
		if rows := uint(c.cfg.RowsPerBank); uint(ent.Addr.Row) >= rows || uint(ent.Src.Row) >= rows {
			err := c.rowError(req, ent)
			c.table = c.table[:len(c.table)-1]
			t.Release(slot)
			return false, err
		}
	}
	if len(c.table) == 0 {
		return false, nil
	}
	if !env.Critical() {
		env.SetCritical(true)
	}

	// Scheduling decision. The table is in arrival order (index 0 is the
	// oldest), so the built-in schedulers stop at the first eligible entry.
	env.Charge(costs.ScheduleBase + costs.SchedulePerReq*len(c.table))

	var idx int
	if len(c.table) == 1 && c.statelessSched {
		// The built-in stateless schedulers can only pick the sole entry;
		// skip the interface call on this hottest of paths. (The modeled
		// scheduling cost above is charged regardless, so emulated timing
		// is unaffected.)
		idx = 0
	} else {
		idx = c.cfg.Scheduler.Pick(c.table, c.openRows)
		if uint(idx) >= uint(len(c.table)) {
			return false, fmt.Errorf("smc: scheduler %q picked entry %d of a %d-entry request table",
				c.cfg.Scheduler.Name(), idx, len(c.table))
		}
	}
	return c.serveIndex(env, idx)
}

// appendEntry appends a zero entry to the table and returns it.
func (c *BaseController) appendEntry() *Entry {
	if n := len(c.table); n == cap(c.table) {
		// The window reached the end of tableBuf: move it to the start,
		// into a larger array when it fills this one.
		if n == cap(c.tableBuf) {
			c.tableBuf = make([]Entry, 2*n+8)
		}
		c.table = c.tableBuf[:copy(c.tableBuf, c.table)]
	}
	c.table = c.table[:len(c.table)+1]
	ent := &c.table[len(c.table)-1]
	*ent = Entry{}
	return ent
}

// rowError names the out-of-range address of a request ServeOne rejects:
// Addr, or else the source operand Src.
func (c *BaseController) rowError(req *mem.Request, ent *Entry) error {
	pa, row := req.Addr, ent.Addr.Row
	if uint(row) < uint(c.cfg.RowsPerBank) {
		pa, row = req.Src, ent.Src.Row
	}
	return fmt.Errorf("smc: %v request %d: address %#x decodes to row %d, past the bank's %d rows",
		req.Kind, req.ID, pa, row, c.cfg.RowsPerBank)
}

// serveIndex serves the table entry at idx in place and then removes it
// by shifting the older entries up a slot, which keeps the table in
// arrival order — also when service fails, so a failed request leaves the
// table exactly as a served one does.
func (c *BaseController) serveIndex(env *Env, idx int) (bool, error) {
	ent := &c.table[idx]
	var err error
	switch ent.Kind {
	case mem.Read:
		err = c.serveAccess(env, ent, false)
	case mem.Write, mem.Writeback:
		err = c.serveAccess(env, ent, true)
	case mem.RowClone, mem.Bitwise:
		err = c.serveInDRAM(env, ent)
	case mem.Profile, mem.ProfileRow:
		err = c.serveProfile(env, ent)
	default:
		err = fmt.Errorf("smc: unknown request kind %v", ent.Kind)
	}
	for i := idx; i > 0; i-- {
		c.table[i] = c.table[i-1]
	}
	c.table = c.table[1:]
	if err != nil {
		return false, err
	}
	c.stats.Served++
	if len(c.table) == 0 && env.Tile().IncomingEmpty() {
		env.SetCritical(false)
	}
	return true, nil
}

// emitAccess appends the DRAM command sequence for one cache-line access to
// b and returns the activation latency it incurred (0 for a row hit). It
// charges the Bloom lookup when the tRCD provider is consulted and updates
// open-row state and hit/miss statistics.
func (c *BaseController) emitAccess(env *Env, b *bender.Builder, a dram.Addr, isWrite bool) clock.PS {
	var actLatency clock.PS
	if c.quarantine != nil {
		// Graceful degradation: accesses to quarantined rows (plus the
		// filter's false positives) are redirected into the bank's spare
		// region. The lookup exists only once a row has been quarantined,
		// so fault-free service never pays it.
		env.Charge(env.Tile().Costs().BloomCheck)
		if c.quarantine.Contains(rowKey(a.Bank, a.Row)) {
			a.Row = c.spareBase + a.Row%c.recov.SpareRows
			c.stats.RemappedAccesses++
		}
	}
	if c.openRows[a.Bank] == a.Row {
		c.stats.RowHits++
	} else {
		c.stats.RowMisses++
		if c.openRows[a.Bank] >= 0 {
			b.PRE(a.Bank)
			b.WaitCycles(c.preWait)
			actLatency += c.p.TRP
		}
		if c.mit != nil {
			actLatency += c.emitMitigation(env, b, a.Bank, a.Row)
		}
		rcd := c.p.TRCD
		if c.cfg.TRCD != nil {
			env.Charge(env.Tile().Costs().BloomCheck)
			if v := c.cfg.TRCD(a); v > 0 {
				rcd = v
			}
		}
		b.ACTWithRCD(a.Bank, a.Row, rcd)
		if rcd == c.p.TRCD {
			b.WaitCycles(c.actWait)
		} else {
			b.Wait(rcd - c.p.Bus.Period())
		}
		actLatency += rcd
		c.openRows[a.Bank] = a.Row
	}
	if c.cfg.Ranks > 1 {
		// Shared-bus rank-to-rank turnaround: a column command to a
		// different rank than the previous one must trail it by the data
		// burst plus tRTRS (CAS-to-CAS spacing).
		rank := a.Bank >> c.rankShift
		if c.lastCASRank >= 0 && rank != c.lastCASRank {
			rtrs := c.p.RankSwitch()
			// Bender program: programs chain with only a launch-gap cycle,
			// so pad the bus timeline until this CAS sits tBL+tRTRS past
			// the previous program's (the RankBus counts any shortfall).
			if need := c.p.TBL + rtrs; actLatency < need {
				b.Wait(need - actLatency - c.p.Bus.Period())
			}
			// Modeled time: the previous access's occupancy already ends
			// after its own data burst, so the extra serialization a rank
			// switch costs the channel is the turnaround alone — and row
			// preparation overlaps it, so only the remainder is charged.
			if actLatency < rtrs {
				actLatency = rtrs
			}
			c.stats.RankSwitches++
		}
		c.lastCASRank = rank
	}
	if isWrite {
		b.WR(a.Bank, a.Col, nil)
		c.stats.Writes++
	} else {
		b.RD(a.Bank, a.Col)
		c.stats.Reads++
	}
	return actLatency
}

// Quarantine filter sizing: a handful of hard-failed rows per channel is
// the design point; 256 rows at 0.1% false positives keeps the filter a few
// hundred bytes, and a false positive merely remaps a healthy row.
const (
	quarantineCapacity = 256
	quarantineFPRate   = 0.001
)

// rowKey packs a (bank, row) pair into the quarantine filter's key space.
func rowKey(bank, row int) uint64 {
	return uint64(bank)<<40 | uint64(uint32(row))
}

// quarantineRow retires a row that exhausted its retry budget. The Bloom
// filter is created lazily on the first quarantine, so injection-free runs
// never pay its per-access lookup.
func (c *BaseController) quarantineRow(a dram.Addr) error {
	if c.quarantine == nil {
		f, err := bloom.NewForCapacity(quarantineCapacity, quarantineFPRate, c.cfg.QuarantineSeed^0x9aa7)
		if err != nil {
			return fmt.Errorf("smc: quarantine filter: %w", err)
		}
		c.quarantine = f
	}
	if !c.quarantine.Contains(rowKey(a.Bank, a.Row)) {
		c.quarantine.Add(rowKey(a.Bank, a.Row))
		c.stats.QuarantinedRows++
	}
	return nil
}

// emitMitigation feeds an activation to the mitigation policy and refreshes
// each nominated victim row by activation (ACT, tRAS, PRE, tRP) ahead of the
// target row's own ACT. The returned latency joins the access's activation
// latency: mitigation delays the row open, which is exactly its cost.
func (c *BaseController) emitMitigation(env *Env, b *bender.Builder, bank, row int) clock.PS {
	c.mitBuf = c.mit.OnActivate(bank, row, c.mitBuf[:0])
	var lat clock.PS
	for _, v := range c.mitBuf {
		b.ACT(bank, v)
		b.Wait(c.p.TRAS - c.p.Bus.Period())
		b.PRE(bank)
		b.WaitCycles(c.preWait)
		lat += c.p.TRAS + c.p.TRP
		c.stats.MitigationRefreshes++
	}
	return lat
}

// launch flushes the built program to DRAM Bender through the Env and, on
// injected transient launch failures, re-flushes it with exponential
// emulated-time backoff (the builder still holds the program — see
// tile.Tile.Exec); every re-flush is charged like the first. discard drops
// the read data: only profiling consumes a readback. Exhausting the budget is a hard
// error: a host link that fails MaxRetries+1 consecutive launches is dead,
// and the emulation cannot meaningfully continue past it (at the default
// 1e-4 fail rate the chance is ~1e-16 per program).
func (c *BaseController) launch(env *Env, discard bool) (*bender.Result, []bender.ReadLine, error) {
	res, rb, err := env.Exec(discard)
	if err != nil || !res.LaunchFailed {
		return res, rb, err
	}
	if !c.recov.Enabled {
		return nil, nil, fmt.Errorf("smc: Bender launch failed with recovery disabled")
	}
	backoff := c.recov.Backoff
	for attempt := 0; attempt < c.recov.MaxRetries; attempt++ {
		c.stats.Retries++
		env.AddService(backoff, backoff)
		res, rb, err = env.Exec(discard)
		if err != nil || !res.LaunchFailed {
			return res, rb, err
		}
		backoff *= 2
	}
	c.stats.RetryGiveUps++
	return nil, nil, fmt.Errorf("smc: Bender launch failed %d times; giving up", c.recov.MaxRetries+1)
}

// retryRead is the verify-and-retry read path: the chip flagged this access's
// readback unreliable, so re-read the line after an exponential emulated-time
// backoff, up to the configured attempt budget. Transient faults clear on a
// retry; a stuck-at line never does and runs the budget out into a give-up
// (the caller then quarantines the row). The re-read RDs the bank's open row,
// so it targets the remapped row when quarantine redirected the access.
func (c *BaseController) retryRead(env *Env, a dram.Addr, occ, lat *clock.PS) (bool, error) {
	costs := env.Tile().Costs()
	b := env.Tile().Builder()
	backoff := c.recov.Backoff
	for attempt := 0; attempt < c.recov.MaxRetries; attempt++ {
		c.stats.Retries++
		b.Wait(backoff)
		b.RD(a.Bank, a.Col)
		res, _, err := c.launch(env, true)
		if err != nil {
			return false, err
		}
		env.Charge(costs.ReadbackPerLine)
		*occ += backoff + c.p.TBL
		*lat += backoff + c.p.TCL + c.p.TBL
		if res.UnreliableReads == 0 {
			return true, nil
		}
		backoff *= 2
	}
	c.stats.RetryGiveUps++
	return false, nil
}

// serveAccess serves a cache-line read or write with an open-row policy.
func (c *BaseController) serveAccess(env *Env, ent *Entry, isWrite bool) error {
	costs := env.Tile().Costs()
	env.Charge(costs.MapAddr)
	a := ent.Addr
	b := env.Tile().Builder()

	actLatency := c.emitAccess(env, b, a, isWrite)
	res, _, err := c.launch(env, true)
	if err != nil {
		return err
	}
	// Occupancy: row preparation (when needed) plus the data burst. The
	// CAS pipeline tail overlaps other requests, so it contributes to the
	// response latency only.
	occ := actLatency + c.p.TBL
	lat := actLatency
	ok := true
	if isWrite {
		lat += c.p.TCWL + c.p.TBL
	} else {
		env.Charge(costs.ReadbackPerLine)
		lat += c.p.TCL + c.p.TBL
		if c.recov.Enabled && res.UnreliableReads > 0 {
			// Verify-and-retry: the chip flagged the readback. On give-up the
			// quarantine keys on the request's own row — the coordinate future
			// accesses arrive under — not the spare row a remap may have
			// redirected this access to (emitAccess remaps its own copy).
			ok, err = c.retryRead(env, a, &occ, &lat)
			if err != nil {
				return err
			}
			if !ok {
				if err := c.quarantineRow(a); err != nil {
					return err
				}
			}
		}
	}
	env.AddService(occ, lat)
	if c.cfg.Policy == ClosedPage {
		// Auto-precharge: close the row right after the column access.
		// The precharge overlaps subsequent commands to other banks, so it
		// adds no occupancy here; the next access to this bank simply needs
		// no explicit PRE (its tRP is folded into the closed-row path).
		pb := env.Tile().Builder()
		pb.Wait(c.p.TRTP)
		pb.PRE(a.Bank)
		if _, _, err := c.launch(env, true); err != nil {
			return err
		}
		c.openRows[a.Bank] = -1
	}
	env.Respond(ent.ID, ok)
	env.Tile().Release(ent.Slot)
	return nil
}

// serveInDRAM serves an in-DRAM operation on the rows at Src and Addr:
// a RowClone copy from Src to Addr (§7), or a bulk bitwise majority, a
// many-row activation of both rows that drags in their address-OR row.
// Success means the chip committed every attempt. FPM RowClone and the
// majority both need their rows in one bank of one channel (the request
// routed to Addr's controller, which cannot reach another channel's rows);
// otherwise the request fails and the caller must fall back.
func (c *BaseController) serveInDRAM(env *Env, ent *Entry) error {
	costs := env.Tile().Costs()
	env.Charge(2 * costs.MapAddr)
	src, dst := ent.Src, ent.Addr
	clone := ent.Kind == mem.RowClone
	if clone {
		c.stats.RowClones++
	} else {
		c.stats.BitwiseOps++
	}
	if src.Bank != dst.Bank || src.Chan != dst.Chan {
		env.Respond(ent.ID, false)
		env.Tile().Release(ent.Slot)
		return nil
	}
	b := env.Tile().Builder()
	if c.openRows[src.Bank] >= 0 {
		b.PRE(src.Bank)
		b.WaitCycles(c.preWait)
	}
	if clone {
		b.RowClone(src.Bank, src.Row, dst.Row)
	} else {
		b.BitwiseMAJ(src.Bank, src.Row, dst.Row)
	}
	res, _, err := c.launch(env, true)
	if err != nil {
		return err
	}
	c.openRows[src.Bank] = -1
	env.AddService(res.Elapsed, res.Elapsed)
	env.Respond(ent.ID, res.CloneAttempts > 0 && res.CloneSuccesses == res.CloneAttempts)
	env.Tile().Release(ent.Slot)
	return nil
}

// serveProfile serves a §8.1 profiling request. A Profile request tests the
// one cache line at Addr; a ProfileRow request tests every line of Rows
// consecutive rows from Addr's row (a bank stripe; 0 means one row). Either
// way one Bender program initializes each covered line with the known
// pattern and reads it back under the requested tRCD, and the two kinds
// differ only in the builder call: a stripe replaces one request round-trip
// per line with one for up to 64 rows, with per-line outcomes identical
// because each test read lands exactly RCD after its own activation (see
// Builder.ProfileCheck). The readback is scanned in place in the tile's
// buffer (a 64-row stripe reads back half a megabyte). A probe whose
// readback the host link mangled — short, or carrying a corrupt line — is
// re-run whole after a backoff: verdicts from a damaged transfer are
// meaningless.
func (c *BaseController) serveProfile(env *Env, ent *Entry) error {
	costs := env.Tile().Costs()
	env.Charge(costs.MapAddr)
	a := ent.Addr
	req := env.Tile().Req(ent.Slot)
	rcd := req.RCD
	rows, cols := 1, 1
	if ent.Kind == mem.ProfileRow {
		if req.Rows < 0 {
			return fmt.Errorf("smc: profile stripe of %d rows (want 0 or more)", req.Rows)
		}
		rows, cols = max(req.Rows, 1), c.cfg.Mapper.RowBytes()/dram.LineBytes
		if a.Row+rows > c.cfg.RowsPerBank {
			return fmt.Errorf("smc: profile stripe of %d rows from row %d runs past the bank's %d rows",
				rows, a.Row, c.cfg.RowsPerBank)
		}
		if rows*cols > bender.ReadbackLines {
			return fmt.Errorf("smc: profile stripe of %d rows x %d cols exceeds the %d-line readback buffer",
				rows, cols, bender.ReadbackLines)
		}
		c.stats.ProfileRows += int64(rows)
		c.stats.ProfiledLines += int64(rows * cols)
	} else {
		c.stats.Profiles++
	}
	total := rows * cols

	var rb []bender.ReadLine
	backoff := c.recov.Backoff
	for attempt := 0; ; attempt++ {
		b := env.Tile().Builder()
		if c.openRows[a.Bank] >= 0 {
			b.PRE(a.Bank)
			b.WaitCycles(c.preWait)
		}
		if ent.Kind == mem.ProfileRow {
			b.ProfileRowStripe(a.Bank, a.Row, rows, cols, c.profilePattern[:], rcd)
		} else {
			b.ProfileLine(a, c.profilePattern[:], rcd)
		}
		var res *bender.Result
		var err error
		res, rb, err = c.launch(env, false)
		if err != nil {
			return err
		}
		c.openRows[a.Bank] = -1
		env.Charge((costs.ReadbackPerLine + costs.ProfileCompare) * total)
		env.AddService(res.Elapsed, res.Elapsed)

		if !c.recov.Enabled || !stripeCorrupt(rb, total) {
			break
		}
		if attempt >= c.recov.MaxRetries {
			c.stats.RetryGiveUps++
			break
		}
		c.stats.Retries++
		env.AddService(backoff, backoff)
		backoff *= 2
	}

	// The program's only reads are the test reads, in (row, column) order.
	// Per covered row, count its leading reliable lines (the per-line
	// path's stop-at-first-failure accounting); the request passes when
	// every line of every row is reliable. A damaged readback never passes:
	// a short one leaves every count at zero, and a corrupt line no longer
	// matches the pattern.
	rowLines := make([]int, rows)
	passed := 0
	if len(rb) >= total {
		stripe := rb[len(rb)-total:]
		for r := range rowLines {
			cnt := 0
			row := stripe[r*cols : (r+1)*cols]
			for i := range row {
				if !row[i].Reliable || !lineEqual(&row[i].Data, &c.profilePattern) {
					break
				}
				cnt++
			}
			rowLines[r] = cnt
			passed += cnt
		}
	}
	env.RespondLines(ent.ID, passed == total, rowLines)
	env.Tile().Release(ent.Slot)
	return nil
}

// lineEqual reports whether two lines hold the same bytes, compared as
// eight little-endian words. It inlines, where comparing the arrays with
// != compiles to a runtime.memequal call.
func lineEqual(a, b *[dram.LineBytes]byte) bool {
	for i := 0; i < dram.LineBytes; i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:]) {
			return false
		}
	}
	return true
}

// stripeCorrupt reports whether the host link mangled a profiling readback
// of total lines: it came back short, or a surviving line carries the
// link-corruption mark.
func stripeCorrupt(rb []bender.ReadLine, total int) bool {
	if len(rb) < total {
		return true
	}
	for i := len(rb) - total; i < len(rb); i++ {
		if rb[i].LinkCorrupt {
			return true
		}
	}
	return false
}
