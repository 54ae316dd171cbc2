package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"

	"easydram/internal/clock"
)

// What a run outputs. A Result has three kinds of field:
//
//   - the timeline: every emulated quantity — processor cycles, emulated
//     time, marks, and the CPU, cache, controller, chip and tile counters,
//     overall and per core. The paper's §6 claim is that time scaling keeps
//     this part fixed when only the software controller's cost or the FPGA
//     clocks change.
//   - the wall: WallTime and GlobalCycles, the FPGA time the emulation
//     occupied. SimSpeedMHz is derived from them and ProcCycles.
//   - host telemetry, reported outside Result (System.SettleStats,
//     System.ShardStats), which no projection covers.
//
// writeOutput below is the one list of projected fields. A field added to
// Result belongs in it unless it is derived or always zero.

// Timeline returns the canonical text of the run's emulated output, one
// group of fields per line: everything but the FPGA wall time. Two runs
// that differ only in the software controller's cost or the FPGA clocks
// have equal timelines under time scaling.
func (r Result) Timeline() string {
	var b strings.Builder
	r.writeOutput(&b, false)
	return b.String()
}

// Digest returns a 16-hex SHA-256 prefix over the run's timeline and wall
// time: equal digests mean byte-identical emulated output.
func (r Result) Digest() string {
	var b strings.Builder
	r.writeOutput(&b, true)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// OutputDiff describes how o's output differs from r's: the first Timeline
// line that differs, or both wall parts when only those differ. It returns
// the empty string when the two digests are equal.
func (r Result) OutputDiff(o Result) string {
	if r.Digest() == o.Digest() {
		return ""
	}
	a, b := strings.Split(r.Timeline(), "\n"), strings.Split(o.Timeline(), "\n")
	for i := 0; i < max(len(a), len(b)); i++ {
		var la, lb string
		if i < len(a) {
			la = a[i]
		}
		if i < len(b) {
			lb = b[i]
		}
		if la != lb {
			return fmt.Sprintf("timeline line %d: %q vs %q", i+1, la, lb)
		}
	}
	return fmt.Sprintf("wall only: wall=%d global=%d vs wall=%d global=%d",
		r.WallTime, r.GlobalCycles, o.WallTime, o.GlobalCycles)
}

// writeOutput writes the projected fields, with the wall part when wall is
// set. ControllerStats' BurstsServed and BurstedRequests are left out: no
// controller sets them.
func (r Result) writeOutput(b *strings.Builder, wall bool) {
	fmt.Fprintf(b, "proc=%d emu=%d", r.ProcCycles, r.EmulatedTime)
	if wall {
		fmt.Fprintf(b, " wall=%d global=%d", r.WallTime, r.GlobalCycles)
	}
	fmt.Fprintf(b, " marks=%v\n", r.Marks)
	fmt.Fprintf(b, "cpu=%+v\nl1=%+v\nl2=%+v\nchip=%+v\ntile=%+v\n", r.CPU, r.L1, r.L2, r.Chip, r.Tile)
	c := r.Ctrl
	fmt.Fprintf(b, "ctrl=%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		c.Served, c.Reads, c.Writes, c.RowClones, c.BitwiseOps, c.Profiles,
		c.ProfileRows, c.ProfiledLines, c.Refreshes, c.RowHits, c.RowMisses,
		c.RankSwitches, c.Retries, c.RetryGiveUps, c.QuarantinedRows,
		c.RemappedAccesses, c.MitigationRefreshes)
	for i, pc := range r.PerCore {
		fmt.Fprintf(b, "core%d=%d %v %+v %+v\n", i, pc.ProcCycles, pc.Marks, pc.CPU, pc.L1)
	}
}

// Mutation is a named change to a Config.
type Mutation struct {
	// Name identifies the change in failure reports.
	Name string
	// Apply makes the change in place.
	Apply func(*Config)
}

// HiddenCostMutations returns the changes the paper's §6 claim says time
// scaling hides from the emulated system: every software-controller cost
// ×½, ×2 and ×10, the processor's physical clock at half and twice its
// frequency, and a 200 MHz FPGA fabric. Under time scaling each leaves
// Timeline unchanged and moves only the wall part. Without time scaling the
// processor runs at its physical clock, so only the cost changes apply.
func HiddenCostMutations() []Mutation {
	costs := func(num, den int64) func(*Config) {
		return func(c *Config) {
			v := reflect.ValueOf(&c.Costs).Elem()
			for i := 0; i < v.NumField(); i++ {
				v.Field(i).SetInt(v.Field(i).Int() * num / den)
			}
		}
	}
	procPhys := func(num, den clock.PS) func(*Config) {
		return func(c *Config) {
			c.ProcPhys = clock.NewClock(c.ProcPhys.Name()+"-mutated", c.ProcPhys.Period()*num/den)
		}
	}
	return []Mutation{
		{"costs x1/2", costs(1, 2)},
		{"costs x2", costs(2, 1)},
		{"costs x10", costs(10, 1)},
		{"proc-phys at half frequency", procPhys(2, 1)},
		{"proc-phys at twice the frequency", procPhys(1, 2)},
		{"fpga 200MHz", func(c *Config) { c.FPGA = clock.FromMHz("fpga-200mhz", 200) }},
	}
}
