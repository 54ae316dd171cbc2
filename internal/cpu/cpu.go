// Package cpu models the processors EasyDRAM emulates: a simple in-order
// blocking core (the PiDRAM-class 50 MHz Rocket) and an out-of-order core
// with memory-level parallelism and a reorder-buffer window (the BOOM core
// configured to mirror a Cortex-A57, §6).
//
// The model is memory-behaviour-accurate rather than ISA-accurate: it
// executes workload op streams through a two-level cache hierarchy and
// surfaces last-level-cache misses as main-memory requests. All state
// advances in emulated processor cycles; the engine owns the time-scaling
// counters and tells the core how far it may run.
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/workload"
)

// Config parameterises a core model.
type Config struct {
	Name string
	// Clock is the emulated clock of the core.
	Clock clock.Clock
	// InOrder cores block on every cache miss.
	InOrder bool
	// IssueWidth is the number of instructions retired per cycle when no
	// memory stalls occur.
	IssueWidth int
	// MLP is the maximum number of outstanding main-memory misses.
	MLP int
	// ROBWindow is the maximum number of cycles the core may run ahead of
	// its oldest outstanding miss before stalling (reorder-buffer limit).
	ROBWindow clock.Cycles
	// L1Lat / L2Lat are load-to-use latencies charged on L1 and L2 hits.
	L1Lat clock.Cycles
	L2Lat clock.Cycles
	// FlushCost is the cost of the memory-mapped CLFLUSH store.
	FlushCost clock.Cycles
	// MissIssueCost is the pipeline cost of issuing a miss that does not
	// block (out-of-order cores).
	MissIssueCost clock.Cycles
	// MaxInstructions truncates the run after this many instructions
	// (Ramulator-style partial simulation; 0 means unlimited).
	MaxInstructions int64
	// NextLinePrefetch enables a simple L2 next-line prefetcher: every
	// demand miss also fetches the following line (posted, so the core
	// never waits on it, but it occupies the memory controller).
	NextLinePrefetch bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !c.Clock.Valid():
		return fmt.Errorf("cpu %s: clock not set", c.Name)
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu %s: issue width must be positive", c.Name)
	case !c.InOrder && c.MLP <= 0:
		return fmt.Errorf("cpu %s: out-of-order core needs MLP >= 1", c.Name)
	case !c.InOrder && c.ROBWindow <= 0:
		return fmt.Errorf("cpu %s: out-of-order core needs a ROB window", c.Name)
	case c.L1Lat <= 0 || c.L2Lat <= 0:
		return fmt.Errorf("cpu %s: cache latencies must be positive", c.Name)
	}
	return nil
}

// CortexA57 approximates the Jetson Nano's Cortex-A57 at 1.43 GHz: 3-wide
// out-of-order, modest MLP, 128-entry ROB.
func CortexA57() Config {
	return Config{
		Name:          "cortex-a57",
		Clock:         clock.ProcA57,
		InOrder:       false,
		IssueWidth:    2,
		MLP:           6,
		ROBWindow:     128,
		L1Lat:         2,
		L2Lat:         19,
		FlushCost:     4,
		MissIssueCost: 1,
	}
}

// Rocket50 approximates PiDRAM's in-order Rocket core at 50 MHz.
func Rocket50() Config {
	return Config{
		Name:       "rocket-50mhz",
		Clock:      clock.Proc50MHz,
		InOrder:    true,
		IssueWidth: 1,
		L1Lat:      2,
		L2Lat:      14,
		FlushCost:  4,
	}
}

// Boom1GHz is the validation reference core (§6): the BOOM configuration
// emulated at 1 GHz.
func Boom1GHz() Config {
	cfg := CortexA57()
	cfg.Name = "boom-1ghz"
	cfg.Clock = clock.Proc1GHz
	return cfg
}

// Stats counts core events.
type Stats struct {
	Instructions  int64
	Loads         int64
	Stores        int64
	ComputeCycles int64
	L1Hits        int64
	L2Hits        int64
	MemReads      int64
	MemFills      int64 // store-allocate fills
	Writebacks    int64
	Flushes       int64
	RowClones     int64
	Prefetches    int64
	StallCycles   clock.Cycles
}

// Add accumulates o into s (multi-core results aggregate per-core counters).
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.ComputeCycles += o.ComputeCycles
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.MemReads += o.MemReads
	s.MemFills += o.MemFills
	s.Writebacks += o.Writebacks
	s.Flushes += o.Flushes
	s.RowClones += o.RowClones
	s.Prefetches += o.Prefetches
	s.StallCycles += o.StallCycles
}

// Outcome is the result of one core step. Step writes it into the core
// and returns a pointer to it, valid until the next Step. Returned by
// value, its six fields would come back in registers that every caller
// stores to the stack and copies with 16-byte loads, which cannot be
// forwarded from those stores (see ARCHITECTURE, "Small structs written
// where they are used").
type Outcome struct {
	// Cycles consumed by this step (the engine advances Proc by this).
	Cycles clock.Cycles
	// Reqs are memory requests issued this step (may be several: a demand
	// miss plus eviction writebacks).
	Reqs []mem.Request
	// WaitID, when non-zero, blocks the core until that response arrives.
	WaitID uint64
	// Fence, when true, blocks the core until all outstanding requests
	// (including posted writebacks) have completed.
	Fence bool
	// Mark records a measurement-window boundary.
	Mark bool
	// Finished reports the op stream is exhausted and nothing is pending.
	Finished bool
}

type outstandingMiss struct {
	id    uint64
	issue clock.Cycles
}

// CacheView is the cache surface a core executes against: the single-core
// two-level cache.Hierarchy, or one core's cache.CoreView onto the shared
// multi-core fabric (a system builds one or the other, never both). Both
// have the same semantics. The writebacks slice Access and Fill return
// aliases a buffer the next Access or Fill reuses; for a CoreView that is
// the next one on any core's view, so the engine consumes it before
// stepping another core.
type CacheView interface {
	// Access performs a load or store, reporting the satisfying level
	// (1, 2, or 3 = main-memory fill) and dirty victim lines to write back.
	Access(addr uint64, write bool) (level int, writebacks []uint64)
	// L1 returns the L1 the view probes first. Access is
	// L1().Access(addr, write) followed on a miss by Fill.
	L1() *cache.Cache
	// Fill completes an access whose L1 probe has just missed, with
	// Access's results (level 2 or 3).
	Fill(addr uint64, write bool) (level int, writebacks []uint64)
	// WouldMiss reports whether addr would miss every level, without
	// perturbing replacement state.
	WouldMiss(addr uint64) bool
	// Flush removes addr's line, reporting whether a writeback is required.
	Flush(addr uint64) (writeback bool)
}

var (
	_ CacheView = (*cache.Hierarchy)(nil)
	_ CacheView = (*cache.CoreView)(nil)
)

// Core executes one op stream over a cache hierarchy.
type Core struct {
	cfg  Config
	hier CacheView
	// l1 is hier.L1(): Step probes it directly, so an L1 hit makes no
	// interface call, and only a miss goes on to hier.Fill.
	l1   *cache.Cache
	strm workload.Stream
	// hitCycles[level-1][dep] is hitCost's charge for a hit at level 1 or
	// 2, for an independent (dep 0) or dependent (dep 1) access.
	hitCycles [2][2]clock.Cycles
	// issueShift is log2(IssueWidth) when the width is a power of two (every
	// preset), else -1; see computeCycles.
	issueShift int

	// win is the window of ops last taken from the stream by
	// workload.Window: a slice of the stream's own buffer, valid until the
	// next Window call, or one for a stream that hands out one op at a
	// time. Ops are read in place: win[next-1] is the current op while
	// opValid, and win[next:] have not begun. A checkpoint restore puts
	// an op in flight back as a one-op window over one. Per op only the
	// integers move; win, a pointer, is written once per window (once
	// per 4096-op slab for a kernel stream), so a running GC's write
	// barrier is not paid per op.
	win              []workload.Op
	next             int
	one              [1]workload.Op
	opValid          bool
	computeRemaining clock.Cycles
	// instrLimit is cfg.MaxInstructions, or the largest int64 when
	// unlimited, so truncation is one compare per op.
	instrLimit int64
	// err is the fault that stopped the core (see Err).
	err error

	nextID uint64
	// idStride is the request-ID increment (1 for a single core). The
	// multi-core engine gives core i of N the IDs i+1, i+1+N, i+1+2N, …:
	// interleaved-dense, so the engine's slot rings stay compact and a
	// request's owning core is (ID-1) mod N.
	idStride    uint64
	outstanding []outstandingMiss
	// lastLoadMiss is the request ID of the most recent load if it is
	// still outstanding (dependence target), else 0.
	lastLoadMiss uint64
	fencePending bool
	// rcFenced marks that the pending RowClone op has completed its fence.
	rcFenced bool

	reqScratch []mem.Request
	// out is the last Step's outcome, which Step returns by pointer.
	out   Outcome
	stats Stats

	// opsConsumed counts ops pulled from the stream, the replay position a
	// checkpoint restore fast-forwards a rebuilt stream to (see state.go).
	opsConsumed uint64
}

// New returns a core executing strm over hier.
func New(cfg Config, hier CacheView, strm workload.Stream) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu %s: nil cache hierarchy", cfg.Name)
	}
	if strm == nil {
		return nil, fmt.Errorf("cpu %s: nil op stream", cfg.Name)
	}
	shift := -1
	if w := uint(cfg.IssueWidth); w&(w-1) == 0 {
		shift = bits.TrailingZeros(w)
	}
	c := &Core{cfg: cfg, hier: hier, l1: hier.L1(), strm: strm, issueShift: shift,
		nextID: 1, idStride: 1, instrLimit: math.MaxInt64}
	if cfg.MaxInstructions > 0 {
		c.instrLimit = cfg.MaxInstructions
	}
	for dep := 0; dep < 2; dep++ {
		c.hitCycles[0][dep] = c.hitCost(cfg.L1Lat, dep == 1)
		c.hitCycles[1][dep] = c.hitCost(cfg.L2Lat, dep == 1)
	}
	return c, nil
}

// SetIDSpace places the core's request IDs on an interleaved-dense lattice:
// first, first+stride, first+2*stride, …. The multi-core engine calls it
// before the first step so N cores share one dense ID window (core i of N
// gets first=i+1, stride=N); single-core construction keeps the default
// dense sequence 1, 2, 3, ….
func (c *Core) SetIDSpace(first, stride uint64) {
	c.nextID = first
	c.idStride = stride
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Stats returns a snapshot of event counters.
func (c *Core) Stats() Stats { return c.stats }

// Err reports the fault that stopped the core, if any. Step reports an op
// it cannot execute (an unknown kind, which only a hand-built Stream can
// produce) by returning Finished with Err set; the engines return it as
// the run's error.
func (c *Core) Err() error { return c.err }

// Deliver informs the core that the response for request id arrived. The
// miss is removed by shifting the younger entries down a slot, so
// outstanding stays in issue order (outstanding[0] the oldest). The shift
// is a loop, not copy: the builtin's runtime.memmove call costs more than
// moving the few entries an MLP-bounded list holds.
func (c *Core) Deliver(id uint64) {
	o := c.outstanding
	for i := range o {
		if o[i].id == id {
			for j := i + 1; j < len(o); j++ {
				o[j-1] = o[j]
			}
			c.outstanding = o[:len(o)-1]
			break
		}
	}
	if c.lastLoadMiss == id {
		c.lastLoadMiss = 0
	}
}

// FenceDone informs the core a requested fence has completed.
func (c *Core) FenceDone() { c.fencePending = false }

func (c *Core) newID() uint64 {
	id := c.nextID
	c.nextID += c.idStride
	return id
}

// maxBatchCycles bounds one Step call's internal batch. Returning early
// with only accumulated cycles is always equivalent to cycle-at-a-time
// stepping (the next call continues where the batch stopped), so the bound
// only keeps the engine's cycle-cap checks reasonably granular on
// compute-dominated streams.
const maxBatchCycles clock.Cycles = 1 << 16

// Step advances the core by at most budget cycles starting at emulated
// processor cycle now, executing a *batch* of operations per call: runs of
// non-memory work (compute, cache hits, clean flushes) are consumed in one
// internal loop and the call returns at the next memory event — a miss
// issuing requests, a wait, a fence, a mark — or at the budget boundary.
// The engine/core boundary is therefore crossed per event rather than per
// cycle.
//
// A budget <= 0 means unlimited. Batching contract: the caller must cap
// budget so that no response-release point falls strictly inside the batch
// (the engines cap it at the next ready release), because the core's wait
// and back-pressure decisions read state that response delivery mutates.
// Under that cap every decision inside the batch observes exactly the state
// a cycle-at-a-time engine would have shown it, so batched execution is
// cycle-exact (pinned by the golden cycle-count tests). As with single-op
// stepping, the final operation of a batch may overshoot the budget by its
// own atomic cost. The engine must honor Outcome.WaitID/Fence before
// calling Step again.
func (c *Core) Step(now clock.Cycles, budget clock.Cycles) *Outcome {
	if budget <= 0 || budget > maxBatchCycles {
		budget = maxBatchCycles
	}
	if c.fencePending {
		return c.done(Outcome{Fence: true})
	}
	// Per-batch limits. outstanding changes only between calls (Deliver)
	// or at the miss that ends a batch, so the ROB deadline and the
	// all-MSHRs-busy flag are fixed for the whole batch. ROB window: the
	// core cannot run ROBWindow cycles past its oldest outstanding miss, so
	// the batch stops once its cycle now+acc reaches the deadline, exactly
	// where a per-op check would stop it. When the wait arises mid-batch the
	// batch returns what it has; the next call reports the wait itself after
	// the engine has delivered any responses maturing at the batch boundary.
	limit := budget
	mlpFull := false
	var oldestID uint64
	if !c.cfg.InOrder && len(c.outstanding) > 0 {
		oldest := c.outstanding[0]
		rob := oldest.issue + c.cfg.ROBWindow - now
		if rob <= 0 {
			return c.done(Outcome{WaitID: oldest.id})
		}
		limit = min(limit, rob)
		mlpFull = len(c.outstanding) >= c.cfg.MLP
		oldestID = oldest.id
	}
	var acc clock.Cycles // cycles consumed by the batch so far
	for {
		var op *workload.Op
		if c.opValid {
			op = &c.win[c.next-1]
		} else {
			if c.stats.Instructions >= c.instrLimit || c.next >= len(c.win) && !c.refill() {
				if acc > 0 {
					return c.done(Outcome{Cycles: acc})
				}
				if len(c.outstanding) > 0 || c.fencePending {
					return c.done(Outcome{Fence: true})
				}
				return c.done(Outcome{Finished: true})
			}
			op = &c.win[c.next]
			c.next++
			c.opsConsumed++
			c.opValid = true
			if op.Kind == workload.OpCompute {
				c.computeRemaining = c.computeCycles(op.N)
				if c.computeRemaining == 0 {
					c.computeRemaining = 1
				}
				c.stats.Instructions += op.N
				c.stats.ComputeCycles += int64(c.computeRemaining)
			}
		}

		switch op.Kind {
		case workload.OpCompute:
			// The budget, not the ROB deadline, caps a compute op: the
			// deadline is checked between ops, as per-op stepping does.
			take := c.computeRemaining
			if take > budget-acc {
				take = budget - acc
			}
			c.computeRemaining -= take
			if c.computeRemaining == 0 {
				c.opValid = false
			}
			acc += take
			if acc >= limit {
				return c.done(Outcome{Cycles: acc})
			}
			continue

		case workload.OpLoad, workload.OpStore:
			// A dependent op cannot issue until the producing load returns.
			if op.Dep && c.lastLoadMiss != 0 {
				if acc > 0 {
					return c.done(Outcome{Cycles: acc})
				}
				return c.done(Outcome{WaitID: c.lastLoadMiss})
			}
			isStore := op.Kind == workload.OpStore
			// Back-pressure before touching the hierarchy: with all MSHRs
			// busy, an access that would miss cannot even issue.
			if mlpFull && c.hier.WouldMiss(op.Addr) {
				if acc > 0 {
					return c.done(Outcome{Cycles: acc})
				}
				return c.done(Outcome{WaitID: oldestID})
			}
			c.stats.Instructions++
			if isStore {
				c.stats.Stores++
			} else {
				c.stats.Loads++
			}
			c.opValid = false
			dep := 0
			if op.Dep {
				dep = 1
			}
			if c.l1.Access(op.Addr, isStore) {
				// L1 hit: pure cycles, the batch keeps running.
				c.stats.L1Hits++
				acc += c.hitCycles[0][dep]
				if acc >= limit {
					return c.done(Outcome{Cycles: acc})
				}
				continue
			}
			level, writebacks := c.hier.Fill(op.Addr, isStore)
			if level == 2 {
				c.stats.L2Hits++
				acc += c.hitCycles[1][dep]
				if acc >= limit {
					return c.done(Outcome{Cycles: acc})
				}
				continue
			}
			// Main-memory miss: the batch ends here so the requests carry
			// the issue cycle they would under per-op stepping.
			id := c.newID()
			c.reqScratch = c.reqScratch[:0]
			c.addReq(id, mem.Read, lineAlign(op.Addr), false)
			if isStore {
				c.stats.MemFills++
			} else {
				c.stats.MemReads++
			}
			for _, wb := range writebacks {
				c.stats.Writebacks++
				c.addReq(c.newID(), mem.Writeback, wb, true)
			}
			if c.cfg.NextLinePrefetch {
				next := lineAlign(op.Addr) + cache.LineBytes
				if c.hier.WouldMiss(next) {
					c.stats.Prefetches++
					c.hier.Access(next, false) // install into the hierarchy
					c.addReq(c.newID(), mem.Read, next, true)
				}
			}
			issue := c.cfg.MissIssueCost
			if issue <= 0 {
				issue = 1
			}
			var wait uint64
			if c.cfg.InOrder {
				wait = id
			} else {
				c.outstanding = append(c.outstanding, outstandingMiss{id: id, issue: now + acc})
				if !isStore {
					c.lastLoadMiss = id
				}
			}
			return c.issued(Outcome{Cycles: acc + issue, WaitID: wait})

		case workload.OpFlush:
			c.stats.Instructions++
			c.stats.Flushes++
			c.opValid = false
			acc += c.cfg.FlushCost
			if c.hier.Flush(op.Addr) {
				c.reqScratch = c.reqScratch[:0]
				c.addReq(c.newID(), mem.Writeback, lineAlign(op.Addr), true)
				return c.issued(Outcome{Cycles: acc})
			}
			if acc >= limit {
				return c.done(Outcome{Cycles: acc})
			}
			continue

		case workload.OpRowClone:
			// The clone must observe all prior stores and writebacks: fence
			// first, then issue a blocking RowClone request. Handled as its
			// own step so the fence/issue sequencing stays explicit.
			if acc > 0 {
				return c.done(Outcome{Cycles: acc})
			}
			if !c.rcFenced {
				c.rcFenced = true
				c.fencePending = true
				return c.done(Outcome{Cycles: 1, Fence: true})
			}
			c.rcFenced = false
			c.stats.Instructions++
			c.stats.RowClones++
			c.opValid = false
			id := c.newID()
			c.reqScratch = c.reqScratch[:0]
			c.addReq(id, mem.RowClone, op.Addr, false).Src = op.Src
			return c.issued(Outcome{Cycles: 2, WaitID: id})

		case workload.OpBarrier:
			c.opValid = false
			c.fencePending = true
			return c.done(Outcome{Cycles: acc + 1, Fence: true})

		case workload.OpMark:
			// Marks are recorded by the engine at the pre-advance cycle, so
			// a mark always terminates the preceding batch first.
			if acc > 0 {
				return c.done(Outcome{Cycles: acc})
			}
			c.opValid = false
			return c.done(Outcome{Mark: true})

		default:
			return c.fail(op.Kind)
		}
	}
}

// done stores o as the step's outcome and returns it. A literal o
// without Reqs is written straight into c.out.
func (c *Core) done(o Outcome) *Outcome {
	c.out = o
	return &c.out
}

// issued is done for a step that issues reqScratch. Reqs is stored on its
// own: a literal holding the slice is built on the stack and copied.
func (c *Core) issued(o Outcome) *Outcome {
	c.out = o
	c.out.Reqs = c.reqScratch
	return &c.out
}

// addReq appends a request to reqScratch and returns it. It appends a
// zeroed slot and writes the fields into the slot itself: appending a
// filled mem.Request literal builds it in a stack temporary with 8-byte
// stores and copies it out with 16-byte loads, which cannot be forwarded
// from those stores (see ARCHITECTURE, "Small structs written where they
// are used").
func (c *Core) addReq(id uint64, kind mem.Kind, addr uint64, posted bool) *mem.Request {
	c.reqScratch = append(c.reqScratch, mem.Request{})
	r := &c.reqScratch[len(c.reqScratch)-1]
	r.ID, r.Kind, r.Addr, r.Posted = id, kind, addr, posted
	return r
}

// refill takes the stream's next window, reporting false once the stream
// is exhausted.
func (c *Core) refill() bool {
	w := workload.Window(c.strm, &c.one)
	c.win, c.next = w, 0
	return len(w) > 0
}

// fail stops the core at an op it cannot execute; Err reports why.
//
//go:noinline
func (c *Core) fail(k workload.OpKind) *Outcome {
	c.err = fmt.Errorf("cpu %s: unknown op kind %v", c.cfg.Name, k)
	return c.done(Outcome{Finished: true})
}

// computeCycles is ceil(n/IssueWidth) for a non-negative instruction count:
// a shift for power-of-two widths, so the per-op decode avoids a 64-bit
// divide, and the divide for any other width. Neither form adds to n, so
// neither can overflow near the int64 limit: (n-1)>>s + 1 is the ceiling
// for every n >= 0 under an arithmetic shift (n = 0 gives -1 + 1).
func (c *Core) computeCycles(n int64) clock.Cycles {
	w := clock.Cycles(c.cfg.IssueWidth)
	x := clock.Cycles(n)
	if c.issueShift >= 0 {
		return (x-1)>>(c.issueShift&63) + 1
	}
	return x/w + (x%w+w-1)/w
}

// hitCost converts a load-to-use latency into charged cycles. Out-of-order
// cores hide most of an independent hit's latency behind other work, but a
// dependent (pointer-chase) access pays the full load-to-use latency.
func (c *Core) hitCost(lat clock.Cycles, dep bool) clock.Cycles {
	if c.cfg.InOrder || dep {
		return lat
	}
	charged := lat / 4
	if charged < 1 {
		charged = 1
	}
	return charged
}

func lineAlign(a uint64) uint64 { return a &^ uint64(cache.LineBytes-1) }
