package smc

import (
	"fmt"

	"easydram/internal/bender"
	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// Env is the execution environment (the EasyAPI runtime) handed to a
// controller for one scheduling step. It accumulates:
//
//   - chargedFPGA: programmable-core cycles the controller's code consumed,
//   - benderWall: real DRAM-bus time occupied by Bender executions,
//   - modeled: the emulated-system service latency (what the MC counter
//     must advance by under time scaling),
//   - responses produced this step.
//
// The engine resets the Env, runs one controller step, and settles the
// accumulated time into the time-scaling counters.
type Env struct {
	tile *tile.Tile

	chargedFPGA int64
	benderWall  clock.PS
	occupancy   clock.PS
	latency     clock.PS
	responses   []mem.Response
	critical    bool
}

// NewEnv returns an Env over t.
func NewEnv(t *tile.Tile) *Env { return &Env{tile: t} }

// Tile returns the underlying tile.
func (e *Env) Tile() *tile.Tile { return e.tile }

// Reset clears per-step accumulators and ignores its argument.
//
// Deprecated: use Clear. Reset remains only because the host benchmark in
// bench/ still calls it; ROADMAP item 3 deletes it.
func (e *Env) Reset(clock.PS) { e.Clear() }

// Clear clears per-step accumulators.
func (e *Env) Clear() {
	e.chargedFPGA = 0
	e.benderWall = 0
	e.occupancy = 0
	e.latency = 0
	e.responses = e.responses[:0]
}

// Charge accounts n programmable-core cycles.
func (e *Env) Charge(n int) { e.chargedFPGA += int64(n) }

// ChargedFPGA reports the cycles charged this step.
func (e *Env) ChargedFPGA() int64 { return e.chargedFPGA }

// BenderWall reports DRAM-bus wall time consumed this step.
func (e *Env) BenderWall() clock.PS { return e.benderWall }

// AddService credits the modeled service cost of the scheduling step:
// occupancy is the time the memory system cannot serve other requests (bus
// and bank occupancy — what the MC counter advances by); latency is the
// request's own service latency (occupancy plus pipelined tail such as CAS
// latency — what the response release tag is computed from).
func (e *Env) AddService(occupancy, latency clock.PS) {
	e.occupancy += occupancy
	e.latency += latency
}

// Occupancy reports the accumulated modeled occupancy.
func (e *Env) Occupancy() clock.PS { return e.occupancy }

// Latency reports the accumulated modeled service latency.
func (e *Env) Latency() clock.PS { return e.latency }

// SetCritical records the controller's critical-mode intent; the engine
// reflects it into the time-scaling counters.
func (e *Env) SetCritical(on bool) {
	costs := e.tile.Costs()
	if on {
		e.Charge(costs.CriticalEnter)
	} else {
		e.Charge(costs.CriticalExit)
	}
	e.critical = on
}

// Critical reports the controller's critical-mode intent.
func (e *Env) Critical() bool { return e.critical }

// Exec flushes the built command batch to DRAM Bender and executes it
// (EasyAPI flush_commands), charging build, transfer and launch costs and
// accounting the DRAM-bus time it occupied. The result and readback are the
// tile's (see tile.Tile.Exec): valid until the next Exec. With discard the
// read data is dropped and no readback is returned.
func (e *Env) Exec(discard bool) (*bender.Result, []bender.ReadLine, error) {
	costs := e.tile.Costs()
	n := e.tile.Builder().Len()
	e.Charge(costs.BuildPerInstr*n + costs.FlushLaunch + costs.FlushPerInstr*n)
	res, rb, err := e.tile.Exec(discard)
	if err != nil {
		return res, nil, fmt.Errorf("smc: %w", err)
	}
	e.benderWall += res.Elapsed
	return res, rb, nil
}

// Respond enqueues the response for the request with the given ID (EasyAPI
// enqueue_response). The engine computes the response's release point when
// settling the step.
func (e *Env) Respond(id uint64, ok bool) { e.respond(id, ok, nil) }

// RespondLines enqueues a profiling response carrying per-row detail: the
// leading reliable line count of each covered row.
func (e *Env) RespondLines(id uint64, ok bool, rowLines []int) { e.respond(id, ok, rowLines) }

// respond appends a zeroed slot to responses and fills it in place.
// Appending a filled mem.Response literal builds it in a stack temporary
// and copies it out with 16-byte loads of its 8-byte stores (see
// ARCHITECTURE, "Small structs written where they are used"). responses
// is reused from step to step; the zeroing clears the RowLines a profile
// response left in the slot.
func (e *Env) respond(id uint64, ok bool, rowLines []int) {
	e.Charge(e.tile.Costs().Respond)
	e.responses = append(e.responses, mem.Response{})
	r := &e.responses[len(e.responses)-1]
	r.ReqID, r.OK, r.RowLines = id, ok, rowLines
}

// Responses returns the responses produced this step. Release points are
// engine-private (tracked in its release queue keyed by ReqID), not part
// of the response.
func (e *Env) Responses() []mem.Response { return e.responses }
