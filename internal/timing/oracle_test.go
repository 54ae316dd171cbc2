package timing

import (
	"math/rand"
	"slices"
	"testing"

	"easydram/internal/clock"
)

// oracleCmd is one command in the oracle's history.
type oracleCmd struct {
	cmd  Cmd
	bank int
	t    clock.PS
	rcd  clock.PS
}

// historyOracle is a reference DDR4 checker built straight from Params: it
// keeps every command it is given, per bank and for the rank, and answers
// each query by scanning that history for the commands the standard relates
// (the last PRE for tRP, the fourth-latest ACT for tFAW, the latest
// activation's own tRCD, and so on). It shares no state layout with Checker:
// no event-indexed array, no rolling aggregates, no ACT ring.
type historyOracle struct {
	p             Params
	banksPerGroup int
	perBank       [][]oracleCmd
	all           []oracleCmd
}

func newHistoryOracle(p Params, bankGroups, banksPerGroup int) *historyOracle {
	return &historyOracle{p: p, banksPerGroup: banksPerGroup, perBank: make([][]oracleCmd, bankGroups*banksPerGroup)}
}

// lastOn returns the most recently issued kind command on bank b.
func (o *historyOracle) lastOn(b int, kind Cmd) (oracleCmd, bool) {
	h := o.perBank[b]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].cmd == kind {
			return h[i], true
		}
	}
	return oracleCmd{}, false
}

// lastTime is lastOn's issue time, or never when bank b has no such command.
func (o *historyOracle) lastTime(b int, kind Cmd) clock.PS {
	if c, ok := o.lastOn(b, kind); ok {
		return c.t
	}
	return never
}

// latestWhere is the latest issue time among all commands matching keep,
// or never.
func (o *historyOracle) latestWhere(keep func(oracleCmd) bool) clock.PS {
	t := never
	for _, c := range o.all {
		if keep(c) && c.t > t {
			t = c.t
		}
	}
	return t
}

// busEnd is when a column command's data burst leaves the bus.
func (o *historyOracle) busEnd(c oracleCmd) clock.PS {
	if c.cmd == CmdRD {
		return c.t + o.p.TCL + o.p.TBL
	}
	return c.t + o.p.TCWL + o.p.TBL
}

// fourthACT is the issue time of the fourth-latest ACT of the rank, or
// never when fewer than four were issued.
func (o *historyOracle) fourthACT() clock.PS {
	seen := 0
	for i := len(o.all) - 1; i >= 0; i-- {
		if o.all[i].cmd == CmdACT {
			if seen++; seen == 4 {
				return o.all[i].t
			}
		}
	}
	return never
}

// rcdFor is the tRCD in effect on bank b: the latest activation's own
// value, or nominal.
func (o *historyOracle) rcdFor(b int) clock.PS {
	if act, ok := o.lastOn(b, CmdACT); ok && act.rcd > 0 {
		return act.rcd
	}
	return o.p.TRCD
}

func (o *historyOracle) sameGroup(a, b int) bool {
	return a/o.banksPerGroup == b/o.banksPerGroup
}

// violations lists, in reporting order, the constraints c breaks against
// the history so far.
func (o *historyOracle) violations(c oracleCmd) []Violation {
	var out []Violation
	need := func(param string, at clock.PS) {
		if c.t < at {
			out = append(out, Violation{Param: param, Cmd: c.cmd, Need: at, Actual: c.t, Shortfall: at - c.t})
		}
	}
	switch c.cmd {
	case CmdACT:
		need("tRP", o.lastTime(c.bank, CmdPRE)+o.p.TRP)
		need("tRC", o.lastTime(c.bank, CmdACT)+o.p.TRC)
		need("tFAW", o.fourthACT()+o.p.TFAW)
	case CmdPRE:
		need("tRAS", o.lastTime(c.bank, CmdACT)+o.p.TRAS)
		wr := never
		if w, ok := o.lastOn(c.bank, CmdWR); ok {
			wr = o.busEnd(w)
		}
		need("tWR", wr+o.p.TWR)
		need("tRTP", o.lastTime(c.bank, CmdRD)+o.p.TRTP)
	case CmdRD, CmdWR:
		need("tRCD", o.lastTime(c.bank, CmdACT)+o.rcdFor(c.bank))
		bus := never
		for i := len(o.all) - 1; i >= 0; i-- {
			if k := o.all[i].cmd; k == CmdRD || k == CmdWR {
				bus = o.busEnd(o.all[i])
				break
			}
		}
		need("tCCD", bus)
	}
	return out
}

func (o *historyOracle) record(c oracleCmd) {
	o.perBank[c.bank] = append(o.perBank[c.bank], c)
	o.all = append(o.all, c)
}

func (o *historyOracle) earliestACT(b int) clock.PS {
	isACT := func(c oracleCmd) bool { return c.cmd == CmdACT }
	return max(
		o.lastTime(b, CmdPRE)+o.p.TRP,
		o.lastTime(b, CmdACT)+o.p.TRC,
		o.latestWhere(func(c oracleCmd) bool { return c.cmd == CmdREF })+o.p.TRFC,
		o.latestWhere(func(c oracleCmd) bool { return isACT(c) && o.sameGroup(c.bank, b) })+o.p.TRRDL,
		o.latestWhere(isACT)+o.p.TRRDS,
		o.fourthACT()+o.p.TFAW,
	)
}

func (o *historyOracle) earliestPRE(b int) clock.PS {
	wr := never
	if w, ok := o.lastOn(b, CmdWR); ok {
		wr = o.busEnd(w)
	}
	return max(o.lastTime(b, CmdACT)+o.p.TRAS, o.lastTime(b, CmdRD)+o.p.TRTP, wr+o.p.TWR)
}

func (o *historyOracle) earliestCol(b int) clock.PS {
	isCol := func(c oracleCmd) bool { return c.cmd == CmdRD || c.cmd == CmdWR }
	return max(
		o.lastTime(b, CmdACT)+o.rcdFor(b),
		o.latestWhere(func(c oracleCmd) bool { return isCol(c) && o.sameGroup(c.bank, b) })+o.p.TCCDL,
		o.latestWhere(isCol)+o.p.TCCDS,
	)
}

// Oracle stream geometry: 2 bank groups x 2 banks.
const (
	oracleGroups        = 2
	oracleBanksPerGroup = 2
)

// decodeOracleStream turns raw bytes into a command stream over the oracle
// geometry, three bytes per command: kind (ACT at nominal or a reduced
// tRCD, PRE, RD, WR or REF), bank, and the gap since the previous command:
// three in four gaps are under 16 ns in quarter-nanosecond steps (bursts
// that break tFAW and the bus spacing), the rest up to 126 ns in 2 ns steps
// (long enough to meet tRC), so every constraint is both met and broken
// somewhere in a stream.
func decodeOracleStream(p Params, data []byte) []oracleCmd {
	var out []oracleCmd
	var t clock.PS
	for i := 0; i+3 <= len(data); i += 3 {
		if g := clock.PS(data[i+2]); g < 192 {
			t += g % 64 * 250
		} else {
			t += (g - 192) * 2000
		}
		c := oracleCmd{bank: int(data[i+1]) % (oracleGroups * oracleBanksPerGroup), t: t}
		switch data[i] % 7 {
		case 0:
			c.cmd = CmdACT
		case 1:
			c.cmd, c.rcd = CmdACT, p.TRCD/2+clock.PS(data[i+1])*25
		case 2:
			c.cmd = CmdPRE
		case 3, 4:
			c.cmd = CmdRD
		case 5:
			c.cmd = CmdWR
		case 6:
			c.cmd, c.bank = CmdREF, 0
		}
		out = append(out, c)
	}
	return out
}

// diffCheckerOracle replays cmds into a Checker through Apply, a second one
// through ApplyCount, and the oracle, and reports the first disagreement in
// the violation list, the count, or any bank's Earliest* bound.
func diffCheckerOracle(t *testing.T, cmds []oracleCmd) {
	t.Helper()
	p := DDR41333()
	full := NewChecker(p, oracleGroups, oracleBanksPerGroup)
	counted := NewChecker(p, oracleGroups, oracleBanksPerGroup)
	o := newHistoryOracle(p, oracleGroups, oracleBanksPerGroup)
	for i, c := range cmds {
		want := o.violations(c)
		o.record(c)
		got := full.Apply(c.cmd, c.bank, c.t, c.rcd)
		if !slices.Equal(got, want) {
			t.Fatalf("command %d (%v bank %d at %d, rcd %d): Apply = %v, oracle %v", i, c.cmd, c.bank, c.t, c.rcd, got, want)
		}
		if n := counted.ApplyCount(c.cmd, c.bank, c.t, c.rcd); n != len(want) {
			t.Fatalf("command %d (%v bank %d at %d): ApplyCount = %d, oracle %d", i, c.cmd, c.bank, c.t, n, len(want))
		}
		for b := 0; b < oracleGroups*oracleBanksPerGroup; b++ {
			for _, chk := range []*Checker{full, counted} {
				if got, want := chk.EarliestACT(b), o.earliestACT(b); got != want {
					t.Fatalf("after command %d: EarliestACT(%d) = %d, oracle %d", i, b, got, want)
				}
				if got, want := chk.EarliestPRE(b), o.earliestPRE(b); got != want {
					t.Fatalf("after command %d: EarliestPRE(%d) = %d, oracle %d", i, b, got, want)
				}
				if got, want := chk.EarliestRD(b), o.earliestCol(b); got != want {
					t.Fatalf("after command %d: EarliestRD(%d) = %d, oracle %d", i, b, got, want)
				}
				if got, want := chk.EarliestWR(b), o.earliestCol(b); got != want {
					t.Fatalf("after command %d: EarliestWR(%d) = %d, oracle %d", i, b, got, want)
				}
			}
		}
	}
}

// TestCheckerMatchesHistoryOracle diffs the checker against the
// history-scanning oracle on seeded random streams.
func TestCheckerMatchesHistoryOracle(t *testing.T) {
	p := DDR41333()
	seen := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*400)
		rng.Read(data)
		cmds := decodeOracleStream(p, data)
		diffCheckerOracle(t, cmds)
		o := newHistoryOracle(p, oracleGroups, oracleBanksPerGroup)
		for _, c := range cmds {
			for _, v := range o.violations(c) {
				seen[v.Param] = true
			}
			o.record(c)
		}
	}
	// The streams must exercise every reported constraint, or the diff
	// proves nothing about it.
	for _, param := range []string{"tRP", "tRC", "tFAW", "tRAS", "tWR", "tRTP", "tRCD", "tCCD"} {
		if !seen[param] {
			t.Errorf("seeded streams never violate %s", param)
		}
	}
}

// FuzzCheckerOracle diffs the checker against the history-scanning oracle
// on fuzzer-chosen streams.
func FuzzCheckerOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 20, 2, 0, 40, 0, 0, 10})
	f.Add([]byte{1, 1, 0, 1, 2, 4, 1, 3, 4, 0, 0, 4, 0, 1, 4, 5, 1, 30, 2, 1, 8})
	f.Add([]byte{6, 0, 0, 0, 0, 200, 5, 0, 60, 4, 0, 3, 2, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		diffCheckerOracle(t, decodeOracleStream(DDR41333(), data))
	})
}
