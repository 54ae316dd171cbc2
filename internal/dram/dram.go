// Package dram is a behavioural model of a DDR4 rank: banks, rows,
// subarrays, open-row state, and — critically for EasyDRAM — the physical
// consequences of command sequences that violate JEDEC timing:
//
//   - ACT -> (early) PRE -> (early) ACT inside one subarray performs a
//     RowClone copy from the first to the second row when the row pair is
//     clonable, and corrupts the destination otherwise;
//   - RD issued before the row's minimum reliable tRCD returns corrupted
//     data for weak cache lines.
//
// The model stands in for the real DDR4 module behind DRAM Bender. It is
// deterministic: physical behaviour is a pure function of the command trace
// and the seeded variation model.
package dram

import (
	"encoding/binary"
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/fault"
	"easydram/internal/timing"
	"easydram/internal/variation"
)

// LineBytes is the cache-line (and DRAM burst) size in bytes.
const LineBytes = 64

// Addr identifies one cache-line-sized column in the module. Chan and Rank
// are the topology coordinates filled in by topology-aware mappers: Bank is
// the channel-global bank index (ranks appear as consecutive bank groups,
// so Rank always equals Bank / banksPerRank), Chan the owning channel. The
// single-channel, single-rank module leaves both zero.
type Addr struct {
	Chan int
	Rank int
	Bank int
	Row  int
	Col  int
}

func (a Addr) String() string {
	if a.Chan != 0 || a.Rank != 0 {
		return fmt.Sprintf("<chan %d, rank %d, bank %d, row %d, col %d>", a.Chan, a.Rank, a.Bank, a.Row, a.Col)
	}
	return fmt.Sprintf("<bank %d, row %d, col %d>", a.Bank, a.Row, a.Col)
}

// Stats counts chip-level events.
type Stats struct {
	ACTs             int64
	PREs             int64
	RDs              int64
	WRs              int64
	REFs             int64
	RowClones        int64
	RowCloneFails    int64
	BitwiseOps       int64
	BitwiseFails     int64
	CorruptedReads   int64
	TimingViolations int64
	// RankSwitchViolations counts consecutive CAS commands to different
	// ranks of one channel spaced closer than the shared bus's rank-to-rank
	// turnaround (see timing.RankBus). Always zero for a single-rank Chip.
	RankSwitchViolations int64
	// DisturbFlips counts read-disturb bit flips (a victim row's activation
	// counter crossed its threshold) — silent data corruption: nothing at
	// the command interface reports it, so any non-zero count under a
	// mitigation policy is an escaped flip. TransientReads and StuckReads
	// count injected fault-model read corruptions (detectable: the read
	// reports unreliable, and the SMC's verify-and-retry path sees it).
	// All stay zero without fault injection (see Config.Faults).
	DisturbFlips   int64
	TransientReads int64
	StuckReads     int64
}

// Accumulate adds o's counters into s (multi-channel systems sum their
// per-channel module statistics into one Result).
func (s *Stats) Accumulate(o Stats) {
	s.ACTs += o.ACTs
	s.PREs += o.PREs
	s.RDs += o.RDs
	s.WRs += o.WRs
	s.REFs += o.REFs
	s.RowClones += o.RowClones
	s.RowCloneFails += o.RowCloneFails
	s.BitwiseOps += o.BitwiseOps
	s.BitwiseFails += o.BitwiseFails
	s.CorruptedReads += o.CorruptedReads
	s.TimingViolations += o.TimingViolations
	s.RankSwitchViolations += o.RankSwitchViolations
	s.DisturbFlips += o.DisturbFlips
	s.TransientReads += o.TransientReads
	s.StuckReads += o.StuckReads
}

// Config describes the modelled rank.
type Config struct {
	BankGroups    int
	BanksPerGroup int
	RowsPerBank   int
	ColsPerRow    int // cache-line columns per row (128 => 8 KiB rows)
	SubarrayRows  int
	Timing        timing.Params
	Seed          uint64
	// TrackData disables the backing data store when false; timing-only
	// workload runs set it false to avoid moving bytes they never check.
	TrackData bool
	// ClonableFraction overrides the variation model's default when > 0.
	ClonableFraction float64
	// Ideal removes process variation entirely: every read is reliable at
	// any tRCD and every intra-subarray RowClone succeeds. This is how
	// software simulators (Ramulator 2.0) model DRAM (§7.2: "All source
	// and destination row pairs can successfully perform RowClone
	// operations in Ramulator 2.0 simulations").
	Ideal bool
	// Faults configures chip-level fault injection (read disturb, transient
	// read corruption, stuck-at lines). The zero value injects nothing and
	// keeps the command paths byte-identical to a fault-free build.
	Faults fault.ChipConfig
}

// DefaultConfig mirrors the paper's module: 4 bank groups x 4 banks,
// 32K rows x 8 KiB, DDR4-1333.
func DefaultConfig() Config {
	return Config{
		BankGroups:    4,
		BanksPerGroup: 4,
		RowsPerBank:   32768,
		ColsPerRow:    128,
		SubarrayRows:  512,
		Timing:        timing.DDR41333(),
		Seed:          1,
		TrackData:     true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BankGroups <= 0 || c.BanksPerGroup <= 0 {
		return fmt.Errorf("dram: bank organisation must be positive, got %dx%d", c.BankGroups, c.BanksPerGroup)
	}
	if c.RowsPerBank <= 0 || c.ColsPerRow <= 0 {
		return fmt.Errorf("dram: row organisation must be positive, got %d rows x %d cols", c.RowsPerBank, c.ColsPerRow)
	}
	if c.SubarrayRows <= 0 || c.RowsPerBank%c.SubarrayRows != 0 {
		return fmt.Errorf("dram: subarray size %d must divide rows per bank %d", c.SubarrayRows, c.RowsPerBank)
	}
	return c.Timing.Validate()
}

// bankState is the chip-internal state of one bank.
type bankState struct {
	openRow     int // -1 when precharged
	lastActRow  int
	lastActTime clock.PS
	lastPreTime clock.PS
	// senseAmpsHold reports that the last precharge happened so early that
	// the sense amplifiers still hold the previously activated row's charge
	// (precondition for RowClone's second activation).
	senseAmpsHold bool
	// preGap is the ACT->PRE spacing of the last precharge (distinguishes
	// the many-row-activation window from RowClone's).
	preGap clock.PS
	// rcdRow's line thresholds (variation.Model.LineThresholds), memoized
	// by the last reduced-tRCD read of the bank (rcdRow -1 = none), so a
	// row's 128 test reads evaluate the noise field once. They are derived
	// state — a pure function of (bank, rcdRow) under the seeded model —
	// so checkpoints omit them.
	rcdRow, weakCol   int
	weakRCD, otherRCD clock.PS
	// openData is row openDataRow's data slice, looked up by the first RD
	// or WR that finds the bank open on another row (openDataRow -1 =
	// none). ACT and PRE leave it, so re-activating the same row reuses
	// it; REF and LoadState clear it. Row slices never move once
	// allocated, and every other writer (RowClone, scramble, disturb
	// flips, PokeLine, LoadState) writes into them in place, so the
	// cached slice always sees current data.
	openData    []byte
	openDataRow int
}

// Chip is the behavioural rank model. Not safe for concurrent use; the
// emulation engine is single-threaded by design (determinism).
type Chip struct {
	cfg     Config
	geom    variation.Geometry
	vm      *variation.Model
	checker *timing.Checker
	banks   []bankState
	// maxMinRCD caches vm.MaxMinTRCD(): reads at or above it are reliable
	// without consulting the variation model.
	maxMinRCD clock.PS
	// rows holds the backing data store as two-level per-bank tables
	// (bank -> rowChunkRows-row chunk -> row), every level allocated
	// lazily. The RD/WR data path indexes instead of hashing, and the
	// GC-scannable metadata stays proportional to the row neighbourhoods
	// actually touched rather than the full 32K-row geometry.
	rows [][][][]byte
	// arena is the unused tail of the block new rows take their data
	// from: rowArenaRows rows allocated at once, on the first touch that
	// finds the tail empty.
	arena []byte
	stats Stats

	// fm is the fault-injection model (nil without injection: every hook
	// below is a single nil check on the disabled path). disturb holds the
	// per-bank victim activation counters, allocated lazily per bank.
	fm      *fault.ChipModel
	disturb [][]int32
}

// rowChunkShift/rowChunkRows size the row-table chunks (a power of two:
// the data path splits row indices with a shift and mask).
const (
	rowChunkShift = 8
	rowChunkRows  = 1 << rowChunkShift
)

// rowArenaRows is how many rows' data one arena block holds.
const rowArenaRows = 64

// New constructs a Chip.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := variation.Geometry{
		Banks:        cfg.BankGroups * cfg.BanksPerGroup,
		RowsPerBank:  cfg.RowsPerBank,
		ColsPerRow:   cfg.ColsPerRow,
		SubarrayRows: cfg.SubarrayRows,
	}
	var opts []variation.Option
	if cfg.ClonableFraction > 0 {
		opts = append(opts, variation.WithClonableFraction(cfg.ClonableFraction))
	}
	vm, err := variation.NewModel(geom, cfg.Seed, opts...)
	if err != nil {
		return nil, fmt.Errorf("dram: %w", err)
	}
	banks := make([]bankState, geom.Banks)
	for i := range banks {
		banks[i] = bankState{openRow: -1, lastActRow: -1, lastActTime: -1 << 60, lastPreTime: -1 << 60, rcdRow: -1, openDataRow: -1}
	}
	c := &Chip{
		cfg:       cfg,
		geom:      geom,
		vm:        vm,
		checker:   timing.NewChecker(cfg.Timing, cfg.BankGroups, cfg.BanksPerGroup),
		banks:     banks,
		maxMinRCD: vm.MaxMinTRCD(),
		rows:      make([][][][]byte, geom.Banks),
	}
	if cfg.Faults.Enabled() {
		// The rank's variation seed feeds the fault model too, so per-rank
		// fault maps diversify exactly like per-rank variation maps.
		fm, err := fault.NewChipModel(cfg.Faults, cfg.Seed, geom.ColsPerRow)
		if err != nil {
			return nil, fmt.Errorf("dram: %w", err)
		}
		c.fm = fm
		c.disturb = make([][]int32, geom.Banks)
	}
	return c, nil
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Geometry returns the modelled geometry.
func (c *Chip) Geometry() variation.Geometry { return c.geom }

// Variation exposes the underlying variation model (used by characterization
// tests; the SMC must discover it by profiling, like on real silicon).
func (c *Chip) Variation() *variation.Model { return c.vm }

// Stats returns a snapshot of chip event counters.
func (c *Chip) Stats() Stats { return c.stats }

// Timing returns the nominal timing parameters of the module.
func (c *Chip) Timing() timing.Params { return c.cfg.Timing }

// RowBytes reports the row size in bytes.
func (c *Chip) RowBytes() int { return c.cfg.ColsPerRow * LineBytes }

func (c *Chip) rowData(bank, row int) []byte {
	bt := c.rows[bank]
	if bt == nil {
		bt = make([][][]byte, (c.cfg.RowsPerBank+rowChunkRows-1)/rowChunkRows)
		c.rows[bank] = bt
	}
	ch := bt[row>>rowChunkShift]
	if ch == nil {
		ch = make([][]byte, rowChunkRows)
		bt[row>>rowChunkShift] = ch
	}
	d := ch[row&(rowChunkRows-1)]
	if d == nil {
		n := c.RowBytes()
		if len(c.arena) < n {
			c.arena = make([]byte, rowArenaRows*n)
		}
		d = c.arena[:n:n]
		c.arena = c.arena[n:]
		ch[row&(rowChunkRows-1)] = d
	}
	return d
}

// rowCloneEarlyPRE is how soon after ACT a PRE must arrive for the sense
// amps to still hold the row (interrupted restoration).
const rowCloneEarlyPRE = 15 * clock.Nanosecond

// rowCloneEarlyACT is how soon after the early PRE the second ACT must
// arrive for charge sharing to copy the held data into the new row.
const rowCloneEarlyACT = 10 * clock.Nanosecond

// Activate issues ACT(bank,row) at absolute time t with effective tRCD rcd
// (0 = nominal). It returns whether this activation completed a RowClone
// sequence, and whether that clone succeeded. (Many-row activations —
// bitwise MAJ, see bitwise.go — are detected here too and reported through
// Stats; they also count as a "clone" attempt for the caller.) Both need
// sense amps still holding another row of the bank, so an ordinary ACT
// tests that once and goes straight to the bank update.
func (c *Chip) Activate(bank, row int, t clock.PS, rcd clock.PS) (cloned, cloneOK bool) {
	c.boundsRow(bank, row)
	b := &c.banks[bank]
	c.stats.TimingViolations += int64(c.checker.ApplyCount(timing.CmdACT, bank, t, rcd))
	c.stats.ACTs++
	if c.fm != nil && c.fm.DisturbEnabled() {
		c.noteActivate(bank, row)
	}
	if b.senseAmpsHold && row != b.lastActRow {
		cloned, cloneOK = c.senseAmpActivate(bank, row, t)
	}
	b.openRow = row
	b.lastActRow = row
	b.lastActTime = t
	b.senseAmpsHold = false
	c.checker.Bank(bank).OpenRow = row
	return cloned, cloneOK
}

// senseAmpActivate handles an ACT of row while the bank's sense amps still
// hold lastActRow, an early PRE ago: within bitwiseEarlyGap of both
// commands it is a many-row activation (bitwise.go), within
// rowCloneEarlyACT of the PRE a RowClone's second activation, and
// otherwise an ordinary ACT. It reports Activate's results; the caller
// updates the bank.
func (c *Chip) senseAmpActivate(bank, row int, t clock.PS) (cloned, cloneOK bool) {
	b := &c.banks[bank]
	if b.preGap <= bitwiseEarlyGap && t-b.lastPreTime <= bitwiseEarlyGap {
		return true, c.bitwiseMAJ(bank, b.lastActRow, row)
	}
	if t-b.lastPreTime > rowCloneEarlyACT {
		return false, false
	}
	// RowClone second activation: the sense amps drive the held data into
	// the newly opened row.
	if c.cfg.Ideal || c.vm.Clonable(bank, b.lastActRow, row) {
		c.stats.RowClones++
		if c.cfg.TrackData {
			copy(c.rowData(bank, row), c.rowData(bank, b.lastActRow))
		}
		return true, true
	}
	c.stats.RowCloneFails++
	if c.cfg.TrackData {
		c.scramble(bank, row)
	}
	return true, false
}

// Precharge issues PRE(bank) at absolute time t.
func (c *Chip) Precharge(bank int, t clock.PS) {
	c.boundsBank(bank)
	b := &c.banks[bank]
	c.stats.TimingViolations += int64(c.checker.ApplyCount(timing.CmdPRE, bank, t, 0))
	c.stats.PREs++
	// Early precharge interrupts restoration and leaves the sense amps
	// holding the row's data (RowClone first half).
	b.senseAmpsHold = b.openRow >= 0 && t-b.lastActTime <= rowCloneEarlyPRE
	b.preGap = t - b.lastActTime
	b.lastPreTime = t
	b.openRow = -1
}

// Read issues RD(bank, open row, col) at absolute time t and copies the line
// into dst (len >= LineBytes) when data tracking is on. It reports whether
// the read returned reliable data given the effective tRCD of the open row's
// activation.
func (c *Chip) Read(bank, col int, t clock.PS, dst []byte) (reliable bool, err error) {
	c.boundsBank(bank)
	b := &c.banks[bank]
	if b.openRow < 0 {
		return false, fmt.Errorf("dram: RD on precharged bank %d", bank)
	}
	if col < 0 || col >= c.cfg.ColsPerRow {
		return false, fmt.Errorf("dram: RD column %d out of range", col)
	}
	c.stats.TimingViolations += int64(c.checker.ApplyCount(timing.CmdRD, bank, t, 0))
	c.stats.RDs++

	effRCD := t - b.lastActTime
	if nominal := c.cfg.Timing.TRCD; effRCD > nominal {
		effRCD = nominal
	}
	// At or above the variation grid's top level every line is reliable;
	// normal (nominal-timing) reads skip the noise-field evaluation.
	varReliable := c.cfg.Ideal || effRCD >= c.maxMinRCD || effRCD >= c.lineThreshold(b, bank, col)
	if !varReliable {
		c.stats.CorruptedReads++
	}
	reliable = varReliable
	// Injected read faults are detectable (the modeled in-line ECC reports
	// the read unreliable): a stuck line refails every retry, a transient
	// draw does not repeat.
	var faultMask uint64
	if c.fm != nil {
		if mask, stuck := c.fm.StuckAt(bank, b.openRow, col); stuck {
			reliable = false
			faultMask = mask
			c.stats.StuckReads++
		} else if mask, hit := c.fm.TransientRead(); hit {
			reliable = false
			faultMask = mask
			c.stats.TransientReads++
		}
	}
	if c.cfg.TrackData && dst != nil {
		moveLine((*[LineBytes]byte)(dst), c.openLine(b, bank, col))
		if !varReliable {
			faultMask ^= c.vm.CorruptionMask(bank, b.openRow, col)
		}
		if faultMask != 0 {
			v := binary.LittleEndian.Uint64(dst[:8])
			binary.LittleEndian.PutUint64(dst[:8], v^faultMask)
		}
	}
	return reliable, nil
}

// lineThreshold is vm.MinTRCDLine(bank, b.openRow, col) served from the
// bank's memo, which is refilled only when the tested row changes.
func (c *Chip) lineThreshold(b *bankState, bank, col int) clock.PS {
	if b.rcdRow != b.openRow {
		b.weakCol, b.weakRCD, b.otherRCD = c.vm.LineThresholds(bank, b.openRow)
		b.rcdRow = b.openRow
	}
	if col == b.weakCol {
		return b.weakRCD
	}
	return b.otherRCD
}

// Write issues WR(bank, open row, col) at absolute time t, storing src when
// data tracking is on.
func (c *Chip) Write(bank, col int, t clock.PS, src []byte) error {
	c.boundsBank(bank)
	b := &c.banks[bank]
	if b.openRow < 0 {
		return fmt.Errorf("dram: WR on precharged bank %d", bank)
	}
	if col < 0 || col >= c.cfg.ColsPerRow {
		return fmt.Errorf("dram: WR column %d out of range", col)
	}
	c.stats.TimingViolations += int64(c.checker.ApplyCount(timing.CmdWR, bank, t, 0))
	c.stats.WRs++
	if c.cfg.TrackData && src != nil {
		moveLine(c.openLine(b, bank, col), (*[LineBytes]byte)(src))
	}
	return nil
}

// openLine returns column col of bank's open row, looking the row's data
// up only when the bank's memo holds another row (or none).
func (c *Chip) openLine(b *bankState, bank, col int) *[LineBytes]byte {
	if b.openDataRow != b.openRow {
		b.openData = c.rowData(bank, b.openRow)
		b.openDataRow = b.openRow
	}
	return (*[LineBytes]byte)(b.openData[col*LineBytes:])
}

// moveLine copies one line. The copy goes through a local so it compiles
// to inline 16-byte moves: a direct assignment between two line pointers
// may overlap, and the compiler makes that a runtime.memmove call.
func moveLine(dst, src *[LineBytes]byte) {
	v := *src
	*dst = v
}

// Refresh issues REF at absolute time t (all banks must be precharged in
// real DDR4; the model tolerates open banks but closes them).
func (c *Chip) Refresh(t clock.PS) {
	c.checker.ApplyCount(timing.CmdREF, 0, t, 0)
	c.stats.REFs++
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].openData, c.banks[i].openDataRow = nil, -1
		c.banks[i].senseAmpsHold = false
	}
	// Refresh restores every cell, zeroing all disturb counters.
	for _, d := range c.disturb {
		clear(d)
	}
}

// OpenRow reports the open row of bank, or -1 when precharged.
func (c *Chip) OpenRow(bank int) int {
	c.boundsBank(bank)
	return c.banks[bank].openRow
}

// PeekLine copies the stored contents of addr into dst without issuing any
// command. Test/debug helper; returns false when data tracking is off.
func (c *Chip) PeekLine(a Addr, dst []byte) bool {
	if !c.cfg.TrackData {
		return false
	}
	c.boundsRow(a.Bank, a.Row)
	moveLine((*[LineBytes]byte)(dst), (*[LineBytes]byte)(c.rowData(a.Bank, a.Row)[a.Col*LineBytes:]))
	return true
}

// PokeLine stores src at addr without issuing any command. Test helper.
func (c *Chip) PokeLine(a Addr, src []byte) bool {
	if !c.cfg.TrackData {
		return false
	}
	c.boundsRow(a.Bank, a.Row)
	moveLine((*[LineBytes]byte)(c.rowData(a.Bank, a.Row)[a.Col*LineBytes:]), (*[LineBytes]byte)(src))
	return true
}

// noteActivate performs the disturb bookkeeping of one ACT: the activated
// row's own cells are restored (its victim counter resets) while both
// physically adjacent rows accumulate one disturb event each, flipping a
// bit once their seeded threshold is crossed.
func (c *Chip) noteActivate(bank, row int) {
	d := c.disturb[bank]
	if d == nil {
		d = make([]int32, c.cfg.RowsPerBank)
		c.disturb[bank] = d
	}
	d[row] = 0
	if row > 0 {
		c.bumpVictim(bank, row-1, d)
	}
	if row+1 < c.cfg.RowsPerBank {
		c.bumpVictim(bank, row+1, d)
	}
}

// bumpVictim charges one disturb event to a victim row. Crossing the
// threshold flips one bit of the stored row (silent corruption: reads of
// the flipped line stay "reliable" — only mitigation prevents it) and
// restarts the victim's accumulation.
func (c *Chip) bumpVictim(bank, victim int, d []int32) {
	d[victim]++
	if d[victim] < c.fm.DisturbThreshold(bank, victim) {
		return
	}
	d[victim] = 0
	c.stats.DisturbFlips++
	if c.cfg.TrackData {
		col, mask := c.fm.FlipMask(bank, victim, c.stats.DisturbFlips)
		data := c.rowData(bank, victim)
		off := col * LineBytes
		v := binary.LittleEndian.Uint64(data[off:])
		binary.LittleEndian.PutUint64(data[off:], v^mask)
	}
}

// DisturbCounter reports the victim activation counter of (bank, row)
// (0 without disturb injection). Test/debug helper.
func (c *Chip) DisturbCounter(bank, row int) int {
	c.boundsRow(bank, row)
	if c.disturb == nil || c.disturb[bank] == nil {
		return 0
	}
	return int(c.disturb[bank][row])
}

// scramble fills a row with deterministic garbage (failed RowClone target).
func (c *Chip) scramble(bank, row int) {
	data := c.rowData(bank, row)
	h := uint64(bank)<<32 ^ uint64(row) ^ c.cfg.Seed ^ 0x5ca3b1e
	for i := 0; i+8 <= len(data); i += 8 {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		binary.LittleEndian.PutUint64(data[i:], h)
	}
}

// boundsBank and boundsRow panic on an out-of-range coordinate. The panic
// is formatted out of line (boundsPanic) so the checks inline into every
// command.
func (c *Chip) boundsBank(bank int) {
	if uint(bank) >= uint(len(c.banks)) {
		c.boundsPanic(bank, 0)
	}
}

func (c *Chip) boundsRow(bank, row int) {
	if uint(bank) >= uint(len(c.banks)) || uint(row) >= uint(c.cfg.RowsPerBank) {
		c.boundsPanic(bank, row)
	}
}

//go:noinline
func (c *Chip) boundsPanic(bank, row int) {
	if uint(bank) >= uint(len(c.banks)) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, len(c.banks)))
	}
	panic(fmt.Sprintf("dram: row %d out of range [0,%d)", row, c.cfg.RowsPerBank))
}
