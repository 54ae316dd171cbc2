package smc

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// MultiBenchHarness is the multi-channel companion of BenchHarness: one
// controller + environment + module per channel under a shared
// TopologyMapper, for testing per-channel service and its modeled overlap
// in isolation (no engine, no processor model).
type MultiBenchHarness struct {
	mapper *TopologyMapper
	ctls   []*BaseController
	envs   []*Env

	// busy accumulates each channel's modeled service occupancy — the
	// emulated time that channel's bus/banks were held. Channels serve
	// independently, so the wall-clock the module needs is max(busy), while
	// a single channel would need sum(busy): sum/max is the service
	// overlap a topology exhibits on the harness's traffic.
	busy []clock.PS

	nextID   uint64
	nextAddr uint64
}

// NewMultiBenchHarness builds the harness over `channels` line-interleaved
// channels (FR-FCFS, open page, data tracking off).
func NewMultiBenchHarness(channels int) (*MultiBenchHarness, error) {
	cfg := dram.DefaultConfig()
	cfg.TrackData = false
	topo := dram.Topology{Channels: channels, Ranks: 1, Interleave: dram.InterleaveLine}
	chipBanks := cfg.BankGroups * cfg.BanksPerGroup
	m, err := NewTopologyMapper(topo, chipBanks, cfg.ColsPerRow)
	if err != nil {
		return nil, err
	}
	h := &MultiBenchHarness{mapper: m, busy: make([]clock.PS, channels)}
	for c := 0; c < channels; c++ {
		mod, err := dram.NewModule(cfg, 1, c)
		if err != nil {
			return nil, err
		}
		ctl, err := NewBaseController(Config{Mapper: m, Scheduler: FRFCFS{}, RowsPerBank: cfg.RowsPerBank}, mod.Timing(), mod.Banks())
		if err != nil {
			return nil, err
		}
		h.ctls = append(h.ctls, ctl)
		h.envs = append(h.envs, NewEnv(tile.NewDevice(mod, tile.DefaultCostModel())))
	}
	return h, nil
}

// ServeInterleaved pushes and serves n read requests walking consecutive
// cache lines — which the line-interleaved mapper spreads round-robin over
// every channel — in groups of `depth` pending together, then runs each
// channel's controller until its table drains, accumulating per-channel
// modeled occupancy. The host-side work is the per-channel service loops;
// the modeled-time overlap they buy is read off Overlap.
func (h *MultiBenchHarness) ServeInterleaved(n, depth int) error {
	for served := 0; served < n; {
		for k := 0; k < depth; k++ {
			h.nextID++
			ch := h.mapper.Map(h.nextAddr).Chan
			h.envs[ch].Tile().PushRequest(&mem.Request{ID: h.nextID, Kind: mem.Read, Addr: h.nextAddr})
			h.nextAddr += dram.LineBytes
		}
		for c := range h.ctls {
			env := h.envs[c]
			for !env.Tile().IncomingEmpty() || h.ctls[c].Pending() > 0 {
				env.Reset(0)
				worked, err := h.ctls[c].ServeOne(env)
				if err != nil {
					return fmt.Errorf("smc: multi bench harness: %w", err)
				}
				if !worked {
					return fmt.Errorf("smc: multi bench harness: channel %d idle with %d pending", c, h.ctls[c].Pending())
				}
				served += len(env.Responses())
				h.busy[c] += env.Occupancy()
			}
		}
	}
	return nil
}

// Overlap reports the service overlap observed so far: the sum of
// per-channel modeled occupancies over their maximum. 1.0 means fully
// serial (one channel did all the work); C means perfect C-way overlap. It
// is a pure property of the traffic spread and the modeled service costs —
// no host wall clock is involved, so the metric is machine-independent.
func (h *MultiBenchHarness) Overlap() float64 {
	var sum, max clock.PS
	for _, b := range h.busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 0
	}
	return float64(sum) / float64(max)
}
