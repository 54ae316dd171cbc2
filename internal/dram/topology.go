package dram

import (
	"fmt"
	"math/bits"

	"easydram/internal/clock"
	"easydram/internal/timing"
)

// Interleave selects the granularity at which consecutive physical
// addresses rotate across channels.
type Interleave uint8

// Interleaving functions.
const (
	// InterleaveLine rotates consecutive cache lines across channels (the
	// bandwidth-friendly default: streaming traffic spreads over every
	// channel).
	InterleaveLine Interleave = iota
	// InterleaveRow rotates consecutive DRAM rows across channels, keeping
	// each row's lines on one channel (row-locality-friendly: a row-hit
	// burst never straddles channels).
	InterleaveRow
)

func (i Interleave) String() string {
	switch i {
	case InterleaveLine:
		return "line"
	case InterleaveRow:
		return "row"
	}
	return fmt.Sprintf("Interleave(%d)", uint8(i))
}

// ParseInterleave resolves an interleaving name ("line" or "row").
func ParseInterleave(name string) (Interleave, error) {
	switch name {
	case "", "line":
		return InterleaveLine, nil
	case "row":
		return InterleaveRow, nil
	}
	return 0, fmt.Errorf("dram: unknown interleave %q (want line or row)", name)
}

// Topology describes the module organisation above a single rank: how many
// independent channels the system has (each with its own bus, controller
// instance, and Bender pipeline) and how many ranks share each channel's
// bus. The zero value normalises to the paper's single-channel, single-rank
// module.
type Topology struct {
	// Channels is the number of independent memory channels (power of two).
	Channels int
	// Ranks is the number of ranks per channel (power of two). Ranks share
	// the channel's command/data bus and pay a rank-to-rank turnaround on
	// consecutive CAS commands to different ranks.
	Ranks int
	// Interleave selects how physical addresses spread across channels.
	Interleave Interleave
}

// Normalize resolves zero fields to the single-channel, single-rank default.
func (t Topology) Normalize() Topology {
	if t.Channels <= 0 {
		t.Channels = 1
	}
	if t.Ranks <= 0 {
		t.Ranks = 1
	}
	return t
}

// Validate reports topology configuration errors.
func (t Topology) Validate() error {
	t = t.Normalize()
	if t.Channels&(t.Channels-1) != 0 {
		return fmt.Errorf("dram: channel count %d must be a power of two", t.Channels)
	}
	if t.Ranks&(t.Ranks-1) != 0 {
		return fmt.Errorf("dram: rank count %d must be a power of two", t.Ranks)
	}
	if t.Interleave != InterleaveLine && t.Interleave != InterleaveRow {
		return fmt.Errorf("dram: unknown interleave %d", t.Interleave)
	}
	return nil
}

// String renders the topology ("2ch x 2rk (line)").
func (t Topology) String() string {
	t = t.Normalize()
	return fmt.Sprintf("%dch x %drk (%s)", t.Channels, t.Ranks, t.Interleave)
}

// Device is the command surface DRAM Bender drives: a single-rank Chip or a
// multi-rank Module. Bank indices are device-global: a Module exposes its
// ranks as consecutive groups of banks (global bank = rank*banksPerRank +
// rank-local bank), so the controller's open-row table and the Bender
// instruction encoding need no rank field.
type Device interface {
	// Activate issues ACT(bank, row) at absolute time t with effective tRCD
	// rcd (0 = nominal) and reports RowClone completion as Chip.Activate
	// does.
	Activate(bank, row int, t clock.PS, rcd clock.PS) (cloned, cloneOK bool)
	// Precharge issues PRE(bank) at absolute time t.
	Precharge(bank int, t clock.PS)
	// Read issues RD(bank, open row, col) at absolute time t.
	Read(bank, col int, t clock.PS, dst []byte) (reliable bool, err error)
	// Write issues WR(bank, open row, col) at absolute time t.
	Write(bank, col int, t clock.PS, src []byte) error
	// Refresh issues REF at absolute time t (broadcast to every rank).
	Refresh(t clock.PS)
	// Timing returns the nominal timing parameters of the module.
	Timing() timing.Params
}

// seedStride separates per-rank variation seeds: rank r of channel c draws
// its process variation from Seed + (c*ranks+r)*seedStride, so rank 0 of
// channel 0 is bit-identical to the single-chip model while every other
// rank is distinct silicon.
const seedStride = 0x9e3779b97f4a7c15

// Module is one memory channel's population: `ranks` behavioural rank
// models (Chips) sharing a command/data bus. Commands address ranks through
// a device-global bank index (rank = bank >> log2(banksPerRank)); the
// shared bus adds a rank-to-rank turnaround constraint on consecutive CAS
// commands to different ranks, tracked by a timing.RankBus. With one rank
// the module is a pure pass-through: no bus tracking, no extra accounting —
// bit-identical to driving the Chip directly.
type Module struct {
	ranks         []*Chip
	banksPerRank  int
	rankShift     uint
	bankMask      int
	bus           *timing.RankBus
	busViolations int64
}

// NewModule builds a module of `ranks` rank chips from cfg. Each rank gets
// its own variation seed (rank seedOffset+r draws Seed + (seedOffset+r) *
// seedStride, so rank 0 of the first module keeps cfg.Seed exactly);
// multi-channel systems pass channel*ranks as seedOffset to give every
// channel distinct silicon.
func NewModule(cfg Config, ranks, seedOffset int) (*Module, error) {
	if ranks <= 0 {
		ranks = 1
	}
	if ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("dram: rank count %d must be a power of two", ranks)
	}
	banksPerRank := cfg.BankGroups * cfg.BanksPerGroup
	if banksPerRank <= 0 || banksPerRank&(banksPerRank-1) != 0 {
		return nil, fmt.Errorf("dram: banks per rank %d must be a power of two", banksPerRank)
	}
	m := &Module{
		banksPerRank: banksPerRank,
		rankShift:    uint(bits.TrailingZeros(uint(banksPerRank))),
		bankMask:     banksPerRank - 1,
	}
	for r := 0; r < ranks; r++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(seedOffset+r)*seedStride
		chip, err := New(c)
		if err != nil {
			return nil, err
		}
		m.ranks = append(m.ranks, chip)
	}
	if ranks > 1 {
		m.bus = timing.NewRankBus(cfg.Timing)
	}
	return m, nil
}

// Ranks reports the number of ranks in the module.
func (m *Module) Ranks() int { return len(m.ranks) }

// Rank returns the i-th rank's chip model.
func (m *Module) Rank(i int) *Chip { return m.ranks[i] }

// Device returns the command surface a tile drives: the Chip itself when
// the module has one rank (the Module adds nothing there), else the Module.
func (m *Module) Device() Device {
	if len(m.ranks) == 1 {
		return m.ranks[0]
	}
	return m
}

// Banks reports the device-global bank count (ranks x banks per rank).
func (m *Module) Banks() int { return len(m.ranks) * m.banksPerRank }

// BanksPerRank reports the per-rank bank count.
func (m *Module) BanksPerRank() int { return m.banksPerRank }

// Config returns the rank chip configuration (rank 0's seed).
func (m *Module) Config() Config { return m.ranks[0].Config() }

// Timing implements Device.
func (m *Module) Timing() timing.Params { return m.ranks[0].Timing() }

// RowBytes reports the row size in bytes.
func (m *Module) RowBytes() int { return m.ranks[0].RowBytes() }

// split decomposes a device-global bank index.
func (m *Module) split(bank int) (rank int, local int) {
	rank = bank >> m.rankShift
	if uint(rank) >= uint(len(m.ranks)) {
		m.bankPanic(bank)
	}
	return rank, bank & m.bankMask
}

// bankPanic reports an out-of-range global bank; it is kept out of line so
// split inlines into every command.
//
//go:noinline
func (m *Module) bankPanic(bank int) {
	panic(fmt.Sprintf("dram: global bank %d out of range for %d ranks x %d banks",
		bank, len(m.ranks), m.banksPerRank))
}

// Activate implements Device.
func (m *Module) Activate(bank, row int, t clock.PS, rcd clock.PS) (cloned, cloneOK bool) {
	r, b := m.split(bank)
	return m.ranks[r].Activate(b, row, t, rcd)
}

// Precharge implements Device.
func (m *Module) Precharge(bank int, t clock.PS) {
	r, b := m.split(bank)
	m.ranks[r].Precharge(b, t)
}

// Read implements Device. Consecutive CAS commands to different ranks
// within the shared bus's turnaround window count a rank-switch violation
// (the controller is expected to space them; see timing.RankBus).
func (m *Module) Read(bank, col int, t clock.PS, dst []byte) (bool, error) {
	r, b := m.split(bank)
	if m.bus != nil {
		m.busViolations += int64(m.bus.NoteCAS(r, t))
	}
	return m.ranks[r].Read(b, col, t, dst)
}

// Write implements Device.
func (m *Module) Write(bank, col int, t clock.PS, src []byte) error {
	r, b := m.split(bank)
	if m.bus != nil {
		m.busViolations += int64(m.bus.NoteCAS(r, t))
	}
	return m.ranks[r].Write(b, col, t, src)
}

// Refresh implements Device: REF broadcasts to every rank (their tRFC
// windows overlap; each rank keeps its own refresh/bank state).
func (m *Module) Refresh(t clock.PS) {
	for _, c := range m.ranks {
		c.Refresh(t)
	}
}

// OpenRow reports the open row of the device-global bank, or -1.
func (m *Module) OpenRow(bank int) int {
	r, b := m.split(bank)
	return m.ranks[r].OpenRow(b)
}

// PeekLine copies the stored contents of a (device-global bank coordinates)
// into dst without issuing any command; false when data tracking is off.
func (m *Module) PeekLine(a Addr, dst []byte) bool {
	r, b := m.split(a.Bank)
	a.Bank = b
	return m.ranks[r].PeekLine(a, dst)
}

// PokeLine stores src at a without issuing any command. Test helper.
func (m *Module) PokeLine(a Addr, src []byte) bool {
	r, b := m.split(a.Bank)
	a.Bank = b
	return m.ranks[r].PokeLine(a, src)
}

// Stats sums per-rank chip counters; RankSwitchViolations carries the
// shared bus's rank-to-rank turnaround violations (always zero with one
// rank; individual chips never count any, so accumulating them is safe).
func (m *Module) Stats() Stats {
	var s Stats
	for _, c := range m.ranks {
		s.Accumulate(c.Stats())
	}
	s.RankSwitchViolations = m.busViolations
	return s
}

var (
	_ Device = (*Chip)(nil)
	_ Device = (*Module)(nil)
)
