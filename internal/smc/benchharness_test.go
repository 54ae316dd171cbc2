package smc

import (
	"fmt"

	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// BenchHarness is a standalone controller + environment over a paper-class
// chip, for testing the SMC service path in isolation (no engine, no
// processor model).
type BenchHarness struct {
	// Ctl is the controller under measurement.
	Ctl *BaseController
	// Env is its execution environment.
	Env *Env

	nextID   uint64
	nextAddr uint64
}

// NewFaultFreeBenchHarness builds the harness with every fault seam armed
// but no fault ever firing: chip disturb counting enabled with an
// unreachable threshold, and the controller's verify-and-retry recovery
// path on (so reads take the verify branch and find nothing to retry).
// TestFaultFreeServiceLoopZeroAllocs pins that fault tolerance puts no
// allocation on the hot path when nothing goes wrong.
func NewFaultFreeBenchHarness() (*BenchHarness, error) {
	cfg := dram.DefaultConfig()
	cfg.TrackData = false
	cfg.Faults = fault.ChipConfig{
		DisturbEnabled:      true,
		DisturbMinThreshold: 1 << 30, // counters run; no flip is ever reachable
	}
	chip, err := dram.New(cfg)
	if err != nil {
		return nil, err
	}
	tl := tile.New(chip, tile.DefaultCostModel())
	m, err := NewRowBankCol(chip.Geometry().Banks, cfg.ColsPerRow)
	if err != nil {
		return nil, err
	}
	ctl, err := NewBaseController(Config{
		Mapper:      m,
		Scheduler:   FRFCFS{},
		Recovery:    fault.RecoveryConfig{Enabled: true},
		RowsPerBank: cfg.RowsPerBank,
	}, chip.Timing(), chip.Geometry().Banks)
	if err != nil {
		return nil, err
	}
	return &BenchHarness{Ctl: ctl, Env: NewEnv(tl)}, nil
}

// ServeRowGroups pushes and serves n read requests in same-row groups of
// `depth`: each group is made pending together, then the controller runs
// one request per step until the table drains. Addresses walk consecutive
// cache lines, so groups are row hits with a row miss at each row boundary.
func (h *BenchHarness) ServeRowGroups(n, depth int) error {
	env := h.Env
	for served := 0; served < n; {
		for k := 0; k < depth; k++ {
			h.nextID++
			env.Tile().PushRequest(&mem.Request{ID: h.nextID, Kind: mem.Read, Addr: h.nextAddr})
			h.nextAddr += dram.LineBytes
		}
		for {
			env.Clear()
			worked, err := h.Ctl.ServeOne(env)
			if err != nil {
				return fmt.Errorf("smc: bench harness: %w", err)
			}
			if !worked {
				return fmt.Errorf("smc: bench harness: controller idle with %d pending", h.Ctl.Pending())
			}
			served += len(env.Responses())
			if h.Ctl.Pending() == 0 {
				break
			}
		}
	}
	return nil
}
