package timing

import (
	"fmt"

	"easydram/internal/clock"
)

// Cmd is a DRAM command kind as seen by the timing checker.
type Cmd uint8

// DRAM command kinds.
const (
	CmdACT Cmd = iota + 1
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
)

var cmdNames = map[Cmd]string{
	CmdACT: "ACT", CmdPRE: "PRE", CmdRD: "RD", CmdWR: "WR", CmdREF: "REF",
}

func (c Cmd) String() string {
	if s, ok := cmdNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Cmd(%d)", uint8(c))
}

// Violation describes one timing-parameter violation observed when a command
// was issued earlier than the standard allows.
type Violation struct {
	Param     string   // e.g. "tRCD"
	Cmd       Cmd      // the command that violated the parameter
	Need      clock.PS // earliest legal issue time
	Actual    clock.PS // actual issue time
	Shortfall clock.PS
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violates %s by %s", v.Cmd, v.Param, v.Shortfall)
}

// Per-bank event indices into BankState.last. evtWRData records when the
// last write burst finished on the bus (the tWR reference point); the WR
// issue time itself feeds only the cross-bank column aggregates, so no
// per-bank slot exists for it.
const (
	evtACT = iota
	evtPRE
	evtRD
	evtWRData
	evtCount
)

// BankState tracks the timing-relevant history of a single bank.
type BankState struct {
	Open    bool
	OpenRow int
	// ActRCD is the tRCD in effect for the currently open row (reduced-tRCD
	// techniques activate with a shorter tRCD).
	ActRCD clock.PS
	// last holds the most recent time of each tracked event on this bank,
	// indexed by evtACT..evtWRData.
	last [evtCount]clock.PS
}

const never = clock.PS(-1 << 62)

// NewBankState returns a bank whose history predates all commands.
func NewBankState() BankState {
	bs := BankState{OpenRow: -1}
	for i := range bs.last {
		bs.last[i] = never
	}
	return bs
}

// Checker tracks per-bank and cross-bank timing state for one rank and
// reports, for each command, the earliest legal issue time and any violations
// when the command is issued regardless.
//
// Checker never prevents a command from executing: EasyDRAM's whole purpose
// is to issue command sequences that violate the standard. The chip model
// consults the violations to decide physical behaviour.
//
// apply is one switch over the command, each constraint written out in the
// order violations are reported. The cross-bank history is kept as rolling
// per-group and global aggregates updated on each Apply, so neither Apply
// nor the Earliest* queries ever scan the bank array.
type Checker struct {
	p     Params
	banks []BankState
	// groupOf maps bank -> bank group (lookup table; no divide per command).
	groupOf []uint8
	// Rolling cross-bank aggregates: most recent ACT / column command per
	// bank group and overall.
	lastACTGroup []clock.PS
	lastACTAny   clock.PS
	lastColGroup []clock.PS
	lastColAny   clock.PS
	// actWindow holds issue times of the most recent four ACTs (tFAW).
	actWindow [4]clock.PS
	actIdx    int
	lastBus   clock.PS // last data-bus occupancy end
	lastREF   clock.PS
	// viol is the reusable violation buffer Apply returns (the hot path
	// calls Apply per command; allocating a fresh slice each time dominated
	// the engine's allocation profile).
	viol []Violation
}

// NewChecker returns a Checker for bankGroups*banksPerGroup banks.
func NewChecker(p Params, bankGroups, banksPerGroup int) *Checker {
	n := bankGroups * banksPerGroup
	banks := make([]BankState, n)
	groupOf := make([]uint8, n)
	for i := range banks {
		banks[i] = NewBankState()
		groupOf[i] = uint8(i / banksPerGroup)
	}
	c := &Checker{
		p:       p,
		banks:   banks,
		groupOf: groupOf,
		lastBus: never,
		lastREF: never,
	}
	c.lastACTGroup = make([]clock.PS, bankGroups)
	c.lastColGroup = make([]clock.PS, bankGroups)
	for g := 0; g < bankGroups; g++ {
		c.lastACTGroup[g] = never
		c.lastColGroup[g] = never
	}
	c.lastACTAny, c.lastColAny = never, never
	for i := range c.actWindow {
		c.actWindow[i] = never
	}
	return c
}

// Params returns the parameter set the checker enforces.
func (c *Checker) Params() Params { return c.p }

// NumBanks reports the number of banks tracked.
func (c *Checker) NumBanks() int { return len(c.banks) }

// Bank returns a pointer to the state of bank b.
func (c *Checker) Bank(b int) *BankState { return &c.banks[b] }

func maxPS(a, b clock.PS) clock.PS {
	if a > b {
		return a
	}
	return b
}

// EarliestACT reports the earliest standard-legal time for ACT on bank b.
func (c *Checker) EarliestACT(b int) clock.PS {
	bank := &c.banks[b]
	t := bank.last[evtPRE] + c.p.TRP
	t = maxPS(t, bank.last[evtACT]+c.p.TRC)
	t = maxPS(t, c.lastREF+c.p.TRFC)
	t = maxPS(t, c.lastACTGroup[c.groupOf[b]]+c.p.TRRDL)
	t = maxPS(t, c.lastACTAny+c.p.TRRDS)
	// tFAW: at most four ACTs in any tFAW window.
	oldest := c.actWindow[c.actIdx]
	t = maxPS(t, oldest+c.p.TFAW)
	return t
}

// EarliestPRE reports the earliest standard-legal time for PRE on bank b.
func (c *Checker) EarliestPRE(b int) clock.PS {
	bank := &c.banks[b]
	t := bank.last[evtACT] + c.p.TRAS
	t = maxPS(t, bank.last[evtRD]+c.p.TRTP)
	t = maxPS(t, bank.last[evtWRData]+c.p.TWR)
	return t
}

// EarliestRD reports the earliest standard-legal time for RD on bank b.
func (c *Checker) EarliestRD(b int) clock.PS {
	bank := &c.banks[b]
	t := bank.last[evtACT] + bank.effRCD(&c.p)
	t = maxPS(t, c.lastColGroup[c.groupOf[b]]+c.p.TCCDL)
	t = maxPS(t, c.lastColAny+c.p.TCCDS)
	return t
}

// EarliestWR reports the earliest standard-legal time for WR on bank b.
func (c *Checker) EarliestWR(b int) clock.PS {
	return c.EarliestRD(b)
}

// effRCD is the tRCD in effect for the open row. Params is passed by
// pointer: the struct is ~20 words, and a by-value copy per RD/WR showed up
// as the hot path's largest duffcopy.
func (bs *BankState) effRCD(p *Params) clock.PS {
	if bs.ActRCD > 0 {
		return bs.ActRCD
	}
	return p.TRCD
}

// Apply records command cmd on bank b at time t with the tRCD value rcd in
// effect (0 means nominal; only meaningful for ACT). It returns the timing
// violations the issue time incurred, if any. The returned slice aliases a
// buffer reused by the next Apply call; callers must copy entries they keep.
func (c *Checker) Apply(cmd Cmd, b int, t clock.PS, rcd clock.PS) []Violation {
	c.viol = c.viol[:0]
	c.apply(cmd, b, t, rcd, true)
	return c.viol
}

// ApplyCount records cmd exactly like Apply but returns only the number of
// violations, building no Violation records. The chip model's hot path uses
// it: per-command violation detail is diagnostic, and constructing the
// record structs was a measurable share of every RD/WR.
func (c *Checker) ApplyCount(cmd Cmd, b int, t clock.PS, rcd clock.PS) int {
	return c.apply(cmd, b, t, rcd, false)
}

// violate counts one violation of param and, when collect is set, records
// it in the Apply buffer.
func (c *Checker) violate(collect bool, param string, cmd Cmd, need, t clock.PS) int {
	if collect {
		c.viol = append(c.viol, Violation{Param: param, Cmd: cmd, Need: need, Actual: t, Shortfall: need - t})
	}
	return 1
}

// apply checks cmd's constraints in reporting order (ACT: tRP, tRC, tFAW;
// PRE: tRAS, tWR, tRTP; RD/WR: tRCD, tCCD), records the command, and
// returns the number of violations.
func (c *Checker) apply(cmd Cmd, b int, t clock.PS, rcd clock.PS, collect bool) int {
	n := 0
	bank := &c.banks[b]
	switch cmd {
	case CmdACT:
		if need := bank.last[evtPRE] + c.p.TRP; t < need {
			n += c.violate(collect, "tRP", cmd, need, t)
		}
		if need := bank.last[evtACT] + c.p.TRC; t < need {
			n += c.violate(collect, "tRC", cmd, need, t)
		}
		if need := c.actWindow[c.actIdx] + c.p.TFAW; t < need {
			n += c.violate(collect, "tFAW", cmd, need, t)
		}
		bank.Open = true
		bank.ActRCD = rcd
		bank.last[evtACT] = t
		c.actWindow[c.actIdx] = t
		c.actIdx = (c.actIdx + 1) % len(c.actWindow)
		g := c.groupOf[b]
		c.lastACTGroup[g] = maxPS(c.lastACTGroup[g], t)
		c.lastACTAny = maxPS(c.lastACTAny, t)
	case CmdPRE:
		if need := bank.last[evtACT] + c.p.TRAS; t < need {
			n += c.violate(collect, "tRAS", cmd, need, t)
		}
		if need := bank.last[evtWRData] + c.p.TWR; t < need {
			n += c.violate(collect, "tWR", cmd, need, t)
		}
		if need := bank.last[evtRD] + c.p.TRTP; t < need {
			n += c.violate(collect, "tRTP", cmd, need, t)
		}
		bank.Open = false
		bank.OpenRow = -1
		bank.last[evtPRE] = t
	case CmdRD, CmdWR:
		if need := bank.last[evtACT] + bank.effRCD(&c.p); t < need {
			n += c.violate(collect, "tRCD", cmd, need, t)
		}
		if need := c.lastBus; t < need { // coarse data-bus conflict
			n += c.violate(collect, "tCCD", cmd, need, t)
		}
		if cmd == CmdRD {
			bank.last[evtRD] = t
			c.lastBus = t + c.p.TCL + c.p.TBL
		} else {
			bank.last[evtWRData] = t + c.p.TCWL + c.p.TBL
			c.lastBus = bank.last[evtWRData]
		}
		g := c.groupOf[b]
		c.lastColGroup[g] = maxPS(c.lastColGroup[g], t)
		c.lastColAny = maxPS(c.lastColAny, t)
	case CmdREF:
		c.lastREF = t
	default:
		unknownCmd(cmd)
	}
	return n
}

// unknownCmd panics on a command kind apply does not know; it is kept out
// of line so the formatting code stays off the command path.
//
//go:noinline
func unknownCmd(cmd Cmd) {
	panic(fmt.Sprintf("timing: unknown command %v", cmd))
}
