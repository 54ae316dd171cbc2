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

	// EmulatedNow is the emulated-system time at the start of the step
	// (set by the engine; the controller uses it for refresh bookkeeping).
	EmulatedNow clock.PS

	chargedFPGA int64
	benderWall  clock.PS
	occupancy   clock.PS
	latency     clock.PS
	responses   []mem.Response
	readback    []bender.ReadLine
	critical    bool
	// execRes holds the result of the last Exec, which Exec returns by
	// reference like ExecAccess.
	execRes bender.Result
}

// NewEnv returns an Env over t.
func NewEnv(t *tile.Tile) *Env { return &Env{tile: t} }

// Tile returns the underlying tile.
func (e *Env) Tile() *tile.Tile { return e.tile }

// Reset clears per-step accumulators.
func (e *Env) Reset(emulatedNow clock.PS) {
	e.EmulatedNow = emulatedNow
	e.chargedFPGA = 0
	e.benderWall = 0
	e.occupancy = 0
	e.latency = 0
	e.responses = e.responses[:0]
	e.readback = e.readback[:0]
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

// Exec flushes the built command batch to DRAM Bender and executes it,
// charging transfer and launch costs (EasyAPI flush_commands). The result
// stays valid until the next Exec.
func (e *Env) Exec() (*bender.Result, error) {
	costs := e.tile.Costs()
	n := e.tile.Builder().Len()
	e.Charge(costs.BuildPerInstr*n + costs.FlushLaunch + costs.FlushPerInstr*n)
	res := &e.execRes
	var rb []bender.ReadLine
	var err error
	*res, rb, err = e.tile.Exec()
	if err != nil {
		return res, fmt.Errorf("smc: %w", err)
	}
	e.benderWall += res.Elapsed
	e.readback = append(e.readback, rb...)
	return res, nil
}

// ExecAccess executes the built command batch for a plain cache-line access
// step: charged like Exec, but read data is dropped instead of buffered —
// access responses carry no data, so nobody ever consumes it. The result is
// the tile's (see tile.Tile.ExecDiscardReads): valid until the tile's next
// exec.
func (e *Env) ExecAccess() (*bender.Result, error) {
	costs := e.tile.Costs()
	n := e.tile.Builder().Len()
	e.Charge(costs.BuildPerInstr*n + costs.FlushLaunch + costs.FlushPerInstr*n)
	res, err := e.tile.ExecDiscardReads()
	if err != nil {
		return res, fmt.Errorf("smc: %w", err)
	}
	e.benderWall += res.Elapsed
	return res, nil
}

// Readback returns lines read by Bender executions this step.
func (e *Env) Readback() []bender.ReadLine { return e.readback }

// AddBenderWall accounts DRAM-bus wall time for an execution the
// controller ran against the tile directly (bulk profiling consumes the
// tile's readback in place instead of buffering it through the Env).
func (e *Env) AddBenderWall(d clock.PS) { e.benderWall += d }

// Respond enqueues the response for the request with the given ID (EasyAPI
// enqueue_response). The engine computes the response's release point when
// settling the step.
func (e *Env) Respond(id uint64, ok bool) {
	e.Charge(e.tile.Costs().Respond)
	e.responses = append(e.responses, mem.Response{ReqID: id, OK: ok})
}

// RespondLines enqueues a response carrying per-line detail: ProfileRow
// requests report the leading reliable line count and, for bank stripes,
// the per-row leading-line counts (rowLines may be nil for single rows).
func (e *Env) RespondLines(id uint64, ok bool, lines int, rowLines []int) {
	e.Charge(e.tile.Costs().Respond)
	e.responses = append(e.responses, mem.Response{ReqID: id, OK: ok, Lines: lines, RowLines: rowLines})
}

// Responses returns the responses produced this step. Release points are
// engine-private (tracked in its release queue keyed by ReqID), not part
// of the response.
func (e *Env) Responses() []mem.Response { return e.responses }
