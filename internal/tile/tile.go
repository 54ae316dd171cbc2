// Package tile models EasyTile (§5.1): the hardware module that packs the
// programmable core, DRAM Bender, the command/readback buffers, the
// incoming/outgoing request FIFOs, and the Tile Control Logic.
//
// Because the programmable core executes the software memory controller,
// every controller action costs FPGA cycles. The CostModel quantifies those
// costs; they are what time scaling must hide from the emulated system.
package tile

import (
	"encoding/binary"
	"fmt"

	"easydram/internal/bender"
	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
)

// CostModel is the FPGA-cycle cost of each software-memory-controller
// operation on the programmable (Rocket-class, 100 MHz) core. The defaults
// are calibrated so a simple read miss costs ~60-80 FPGA cycles end to end,
// matching the latency class the paper reports for software scheduling.
type CostModel struct {
	Poll            int // check the incoming FIFO
	ReceiveRequest  int // move one request from hardware buffers to memory
	CriticalEnter   int // set_scheduling_state(true)
	CriticalExit    int // set_scheduling_state(false)
	ScheduleBase    int // scheduling decision, fixed part
	SchedulePerReq  int // scheduling decision, per buffered request
	MapAddr         int // physical -> DRAM address translation
	BuildPerInstr   int // append one DRAM Bender instruction
	FlushLaunch     int // trigger DRAM Bender execution
	FlushPerInstr   int // transfer one instruction to the command buffer
	ReadbackPerLine int // move one line from the readback buffer
	Respond         int // enqueue a response
	BloomCheck      int // tRCD Bloom-filter lookup (§8.2)
	ProfileCompare  int // compare a profiled line against the test pattern
}

// DefaultCostModel returns the calibrated default costs.
func DefaultCostModel() CostModel {
	return CostModel{
		Poll:            4,
		ReceiveRequest:  10,
		CriticalEnter:   2,
		CriticalExit:    2,
		ScheduleBase:    8,
		SchedulePerReq:  2,
		MapAddr:         4,
		BuildPerInstr:   3,
		FlushLaunch:     8,
		FlushPerInstr:   1,
		ReadbackPerLine: 5,
		Respond:         8,
		BloomCheck:      10,
		ProfileCompare:  12,
	}
}

// Stats counts tile-level events.
type Stats struct {
	RequestsIn   int64
	ResponsesOut int64
	MaxQueueLen  int
	ProgramsRun  int64
	InstrsRun    int64
	// Host-link fault injection counters (zero without a link model):
	// LaunchFails counts transiently failed Bender launches, CorruptLines
	// readback lines corrupted in flight, ShortReadbacks drains truncated
	// by their final line.
	LaunchFails    int64
	CorruptLines   int64
	ShortReadbacks int64
}

// Accumulate adds o's counters into s (multi-channel systems sum their
// per-channel tile statistics; the queue high-water mark takes the max).
func (s *Stats) Accumulate(o Stats) {
	s.RequestsIn += o.RequestsIn
	s.ResponsesOut += o.ResponsesOut
	if o.MaxQueueLen > s.MaxQueueLen {
		s.MaxQueueLen = o.MaxQueueLen
	}
	s.ProgramsRun += o.ProgramsRun
	s.InstrsRun += o.InstrsRun
	s.LaunchFails += o.LaunchFails
	s.CorruptLines += o.CorruptLines
	s.ShortReadbacks += o.ShortReadbacks
}

// ReqSlot is a dense index into a Tile's pooled request slab. Requests are
// written into the slab once, at issue; every later stage (the incoming
// FIFO, the controller's table entries) carries the 4-byte slot instead of
// re-copying the request struct — the same dense-index idea as the
// engine-side idTable in internal/core/events.go, here with an explicit
// free list because slots are named by position rather than request ID.
type ReqSlot int32

// reqSlab is the pooled backing store for in-flight requests. Alloc pops a
// recycled slot when one exists and grows the slab otherwise; steady state
// performs zero allocations because the live population is bounded by the
// core's MLP plus buffered posted traffic.
type reqSlab struct {
	slots []mem.Request
	free  []ReqSlot
}

func (s *reqSlab) alloc(r *mem.Request) ReqSlot {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[idx] = *r
		return idx
	}
	s.slots = append(s.slots, *r)
	return ReqSlot(len(s.slots) - 1)
}

func (s *reqSlab) release(idx ReqSlot) { s.free = append(s.free, idx) }

// Tile couples the hardware buffers with DRAM Bender.
type Tile struct {
	costs   CostModel
	engine  *bender.Engine
	builder *bender.Builder

	// reqs is the pooled request slab; incoming is a slice-backed FIFO of
	// slab slots: Pop advances head instead of shifting, and the backing
	// array is recycled once drained.
	reqs     reqSlab
	incoming []ReqSlot
	head     int
	stats    Stats

	// dramCursor is the DRAM-bus absolute time of the next Bender program.
	dramCursor clock.PS
	// busPeriod caches the chip's bus period (reading it through
	// Chip().Timing() copies the whole Params struct — measurable per
	// program on the service hot path).
	busPeriod clock.PS

	// link is the host-link fault model (nil without injection — the exec
	// path then pays a single nil check).
	link *fault.LinkModel

	// last is the result of the most recent Exec, which hands out a
	// pointer to it, so the service paths move no Result copies.
	last bender.Result
}

// New builds a tile over the given chip.
func New(chip *dram.Chip, costs CostModel) *Tile { return NewDevice(chip, costs) }

// NewDevice builds a tile over any DRAM device (a single-rank chip or a
// multi-rank module; one tile drives one channel).
func NewDevice(dev dram.Device, costs CostModel) *Tile {
	eng := bender.NewEngine(dev, 0)
	return &Tile{
		costs:     costs,
		engine:    eng,
		builder:   bender.NewBuilder(dev.Timing()),
		busPeriod: dev.Timing().Bus.Period(),
	}
}

// Costs returns the cost model. The pointer refers to the tile's own copy:
// the controller consults costs on every scheduling step, and a by-value
// return of the ~14-word struct was a measurable share of the service
// loop's duffcopy time.
func (t *Tile) Costs() *CostModel { return &t.costs }

// Chip returns the DRAM model behind Bender when it is a single-rank chip
// (nil when the tile drives a multi-rank module; see Device).
func (t *Tile) Chip() *dram.Chip { return t.engine.Chip() }

// Device returns the DRAM device behind Bender.
func (t *Tile) Device() dram.Device { return t.engine.Device() }

// Builder returns the shared program builder (reset per program).
func (t *Tile) Builder() *bender.Builder { return t.builder }

// Stats returns a snapshot of tile counters.
func (t *Tile) Stats() Stats { return t.stats }

// Stage copies a request into the pooled slab without enqueuing it and
// returns its slot. The engine stages issued requests whose arrival has
// not been reached by their controller's decision point; everything else
// should use PushRequest.
func (t *Tile) Stage(r *mem.Request) ReqSlot { return t.reqs.alloc(r) }

// Enqueue appends a previously staged slot to the incoming FIFO (Tile
// Control Logic does this automatically as requests arrive on the memory
// bus).
func (t *Tile) Enqueue(idx ReqSlot) {
	t.incoming = append(t.incoming, idx)
	t.stats.RequestsIn++
	if n := len(t.incoming) - t.head; n > t.stats.MaxQueueLen {
		t.stats.MaxQueueLen = n
	}
}

// PushRequest copies a request into the slab and enqueues it in one step.
func (t *Tile) PushRequest(r *mem.Request) { t.Enqueue(t.Stage(r)) }

// Req returns the slab entry for a live slot. The pointer stays valid until
// Release(idx); callers must not hold it past that.
func (t *Tile) Req(idx ReqSlot) *mem.Request { return &t.reqs.slots[idx] }

// Release recycles a request's slab slot. Call exactly once per request,
// after its response has been enqueued — which makes it the natural place
// to count completed requests: RequestsIn == ResponsesOut at end of run is
// the tile-seam half of the request-conservation invariant the
// differential fuzzer (internal/difffuzz) checks on every config.
func (t *Tile) Release(idx ReqSlot) {
	t.stats.ResponsesOut++
	t.reqs.release(idx)
}

// IncomingEmpty reports whether the request FIFO is empty.
func (t *Tile) IncomingEmpty() bool { return t.head >= len(t.incoming) }

// PopRequest removes and returns the oldest incoming request's slab slot.
func (t *Tile) PopRequest() (ReqSlot, bool) {
	if t.head >= len(t.incoming) {
		return -1, false
	}
	idx := t.incoming[t.head]
	t.head++
	if t.head == len(t.incoming) {
		t.incoming = t.incoming[:0]
		t.head = 0
	}
	return idx, true
}

// SetFaultLink installs a host-link fault model (nil disables injection).
func (t *Tile) SetFaultLink(m *fault.LinkModel) { t.link = m }

// Exec runs the builder's current program on DRAM Bender, advancing the
// DRAM-bus cursor, and returns the result plus the drained readback lines.
// The Result is the tile's own: it describes this program only and stays
// valid until the next Exec; the readback is the engine's buffer, valid
// until the same point. With discard the read data is dropped instead of
// buffered (plain access service, whose readback nobody consumes) and no
// readback is returned.
//
// With a link model installed, the launch may fail transiently (LaunchFailed;
// the builder keeps the program and the cursor does not advance, so the
// controller can re-flush it), and a returned readback may come back short by
// its final line or with one line corrupted (marked LinkCorrupt).
//
// A program with an operand the builder could not encode (bender.Builder.Err)
// is an error: nothing runs, and the builder is reset.
func (t *Tile) Exec(discard bool) (*bender.Result, []bender.ReadLine, error) {
	res := &t.last
	if err := t.builder.Err(); err != nil {
		t.builder.Reset()
		*res = bender.Result{}
		return res, nil, fmt.Errorf("tile: %w", err)
	}
	if t.link != nil && t.link.FailLaunch() {
		// The modeled retry backoff is the controller's to charge.
		t.stats.LaunchFails++
		*res = bender.Result{LaunchFailed: true}
		return res, nil, nil
	}
	prog := t.builder.Program()
	if err := t.engine.ExecInto(res, prog, t.dramCursor, t.builder.WriteBuf(), discard); err != nil {
		return res, nil, fmt.Errorf("tile: %w", err)
	}
	t.dramCursor += res.Elapsed
	// A small inter-program gap models the Bender launch turnaround.
	t.dramCursor += t.busPeriod
	t.stats.ProgramsRun++
	t.stats.InstrsRun += int64(len(prog))
	t.builder.Reset()
	if discard {
		return res, nil, nil
	}
	rb := t.engine.DrainReadback()
	if t.link != nil && len(rb) > 0 {
		if t.link.DropTail() {
			rb = rb[:len(rb)-1]
			t.stats.ShortReadbacks++
		}
	}
	if t.link != nil && len(rb) > 0 {
		if idx, mask, ok := t.link.CorruptReadback(len(rb)); ok {
			line := &rb[idx]
			v := binary.LittleEndian.Uint64(line.Data[:8])
			binary.LittleEndian.PutUint64(line.Data[:8], v^mask)
			line.LinkCorrupt = true
			t.stats.CorruptLines++
		}
	}
	return res, rb, nil
}
