package smc

import (
	"fmt"
	"testing"

	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// faultHarness builds a standalone controller + tile over a chip with the
// given fault configuration (recovery always enabled; data tracking off).
func faultHarness(t *testing.T, cc fault.ChipConfig, lc fault.LinkConfig, seed uint64) *BenchHarness {
	t.Helper()
	cfg := dram.DefaultConfig()
	cfg.TrackData = false
	cfg.Seed = seed
	cfg.Faults = cc
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := tile.New(chip, tile.DefaultCostModel())
	if lc.Enabled() {
		tl.SetFaultLink(fault.NewLinkModel(lc, seed))
	}
	m, err := NewRowBankCol(chip.Geometry().Banks, cfg.ColsPerRow)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewBaseController(Config{
		Mapper:         m,
		Scheduler:      FRFCFS{},
		Recovery:       fault.RecoveryConfig{Enabled: true},
		RowsPerBank:    cfg.RowsPerBank,
		QuarantineSeed: seed,
	}, chip.Timing(), chip.Geometry().Banks)
	if err != nil {
		t.Fatal(err)
	}
	return &BenchHarness{Ctl: ctl, Env: NewEnv(tl)}
}

// serveReads pushes n reads at consecutive line addresses starting at base
// and drains the controller, returning the responses' OK outcomes by ID.
func serveReads(t *testing.T, h *BenchHarness, base uint64, n int) map[uint64]bool {
	t.Helper()
	oks := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		h.nextID++
		h.Env.Tile().PushRequest(&mem.Request{ID: h.nextID, Kind: mem.Read, Addr: base + uint64(i)*dram.LineBytes})
		for h.Ctl.Pending() > 0 || !h.Env.Tile().IncomingEmpty() {
			h.Env.Reset(0)
			worked, err := h.Ctl.ServeOne(h.Env)
			if err != nil {
				t.Fatal(err)
			}
			if !worked {
				t.Fatalf("controller idle with %d pending", h.Ctl.Pending())
			}
			for _, r := range h.Env.Responses() {
				oks[r.ReqID] = r.OK
			}
		}
	}
	return oks
}

func TestRetryReadRecoversTransient(t *testing.T) {
	h := faultHarness(t, fault.ChipConfig{TransientReadRate: 0.1}, fault.LinkConfig{}, 42)
	oks := serveReads(t, h, 0, 400)
	st := h.Ctl.Stats()
	if st.Retries == 0 {
		t.Fatal("no retries at a 10% transient read rate over 400 reads")
	}
	bad := 0
	for _, ok := range oks {
		if !ok {
			bad++
		}
	}
	// A read only fails when MaxRetries consecutive re-reads also draw
	// corrupt (~0.1^3 per initially flagged read) — allow a straggler.
	if bad > 2 {
		t.Fatalf("%d of 400 reads failed despite retry (retries=%d, giveups=%d)", bad, st.Retries, st.RetryGiveUps)
	}
	if st.QuarantinedRows != int64(st.RetryGiveUps) {
		t.Fatalf("give-ups (%d) and quarantined rows (%d) disagree", st.RetryGiveUps, st.QuarantinedRows)
	}
}

func TestStuckAtGiveUpQuarantinesAndRemaps(t *testing.T) {
	h := faultHarness(t, fault.ChipConfig{StuckAtRate: 0.02}, fault.LinkConfig{}, 7)
	const n = 600
	first := serveReads(t, h, 0, n)
	st := h.Ctl.Stats()
	if st.RetryGiveUps == 0 || st.QuarantinedRows == 0 {
		t.Fatalf("no give-ups at a 2%% stuck-at rate over %d reads (retries=%d)", n, st.Retries)
	}
	failed := 0
	for _, ok := range first {
		if !ok {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("give-ups recorded but every response was OK")
	}
	// Re-reading the same addresses must hit the quarantine remap; the spare
	// region serves them (spare rows can themselves be stuck, so only the
	// remap count is asserted, not universal success).
	serveReads(t, h, 0, n)
	st = h.Ctl.Stats()
	if st.RemappedAccesses == 0 {
		t.Fatal("second pass over quarantined rows performed no remaps")
	}
}

func TestLaunchFailureRetriesAndServes(t *testing.T) {
	h := faultHarness(t, fault.ChipConfig{}, fault.LinkConfig{ExecFailRate: 0.1}, 11)
	oks := serveReads(t, h, 0, 300)
	for id, ok := range oks {
		if !ok {
			t.Fatalf("request %d failed under launch-failure injection", id)
		}
	}
	st := h.Ctl.Stats()
	ts := h.Env.Tile().Stats()
	if ts.LaunchFails == 0 {
		t.Fatal("no launch failures injected at a 10% fail rate over 300 reads")
	}
	if st.Retries < ts.LaunchFails {
		t.Fatalf("retries (%d) below injected launch failures (%d)", st.Retries, ts.LaunchFails)
	}
}

func TestMitigationEmitsVictimRefreshes(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.TrackData = false
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := tile.New(chip, tile.DefaultCostModel())
	m, err := NewRowBankCol(chip.Geometry().Banks, cfg.ColsPerRow)
	if err != nil {
		t.Fatal(err)
	}
	mit, err := fault.NewMitigator(fault.MitigationConfig{Policy: "trr", TRRThreshold: 4}, cfg.RowsPerBank, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewBaseController(Config{Mapper: m, Scheduler: FRFCFS{}, Mitigation: mit, RowsPerBank: cfg.RowsPerBank},
		chip.Timing(), chip.Geometry().Banks)
	if err != nil {
		t.Fatal(err)
	}
	h := &BenchHarness{Ctl: ctl, Env: NewEnv(tl)}
	// Alternate two rows of one bank: every access misses, every miss is an
	// ACT the mitigator observes, and every 4th ACT per row refreshes its
	// neighbours. Under the row:bank:col mapping a row stride spans every
	// bank's row segment.
	rowStride := uint64(cfg.ColsPerRow) * dram.LineBytes * uint64(chip.Geometry().Banks)
	for i := 0; i < 64; i++ {
		h.nextID++
		addr := uint64(i%2) * 2 * rowStride
		h.Env.Tile().PushRequest(&mem.Request{ID: h.nextID, Kind: mem.Read, Addr: addr})
		h.Env.Reset(0)
		if _, err := h.Ctl.ServeOne(h.Env); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Ctl.Stats()
	if st.MitigationRefreshes == 0 {
		t.Fatal("TRR mitigation never refreshed a victim row")
	}
	if st.MitigationRefreshes%2 != 0 {
		t.Fatalf("mid-bank victims come in pairs, got %d refreshes", st.MitigationRefreshes)
	}
}

func TestFaultFreeHarnessStaysClean(t *testing.T) {
	h, err := NewFaultFreeBenchHarness()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ServeRowGroups(512, 8); err != nil {
		t.Fatal(err)
	}
	st := h.Ctl.Stats()
	if st.Retries != 0 || st.RetryGiveUps != 0 || st.QuarantinedRows != 0 || st.RemappedAccesses != 0 {
		t.Fatalf("armed-but-idle fault seams produced events: %+v", st)
	}
	if chip := h.Env.Tile().Chip(); chip.Stats().DisturbFlips != 0 {
		t.Fatal("unreachable disturb threshold still flipped bits")
	}
}

// TestRecoveryDeterminism pins that a fixed seed reproduces the exact retry
// and give-up sequence.
func TestRecoveryDeterminism(t *testing.T) {
	run := func() (ControllerStats, string) {
		h := faultHarness(t, fault.ChipConfig{TransientReadRate: 0.05, StuckAtRate: 0.01}, fault.LinkConfig{ExecFailRate: 0.02}, 99)
		oks := serveReads(t, h, 0, 300)
		sig := ""
		for id := uint64(1); id <= 300; id++ {
			if oks[id] {
				sig += "1"
			} else {
				sig += "0"
			}
		}
		return h.Ctl.Stats(), sig
	}
	s1, sig1 := run()
	s2, sig2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if sig1 != sig2 {
		t.Fatal("response outcomes diverged across identical runs")
	}
	if s1.Retries == 0 {
		t.Fatal(fmt.Sprintf("determinism test exercised no retries: %+v", s1))
	}
}

// TestServeOneLaunchFailureRemovesEntry pins the error path of the request
// table: with every Bender launch failing and recovery disabled, each
// ServeOne reports the error and still removes the entry it picked, so
// Pending drops by one per call and the entries left are the others.
func TestServeOneLaunchFailureRemovesEntry(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.TrackData = false
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := tile.New(chip, tile.DefaultCostModel())
	tl.SetFaultLink(fault.NewLinkModel(fault.LinkConfig{ExecFailRate: 1}, 1))
	m, err := NewRowBankCol(chip.Geometry().Banks, cfg.ColsPerRow)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewBaseController(Config{Mapper: m, Scheduler: FRFCFS{}, RowsPerBank: cfg.RowsPerBank}, chip.Timing(), chip.Geometry().Banks)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(tl)
	const n = 3
	for i := 1; i <= n; i++ {
		tl.PushRequest(&mem.Request{ID: uint64(i), Kind: mem.Read, Addr: uint64(i) * 4096 * dram.LineBytes})
	}
	for left := n - 1; left >= 0; left-- {
		env.Reset(0)
		worked, err := ctl.ServeOne(env)
		if err == nil || worked {
			t.Fatalf("ServeOne = (%v, %v), want the launch failure", worked, err)
		}
		if ctl.Pending() != left {
			t.Fatalf("Pending = %d after a failed serve, want %d", ctl.Pending(), left)
		}
		seen := map[uint64]bool{}
		for _, e := range ctl.table {
			if e.ID < 1 || e.ID > n || seen[e.ID] {
				t.Fatalf("table holds %+v after a failed serve", ctl.table)
			}
			seen[e.ID] = true
		}
	}
	if st := ctl.Stats(); st.Served != 0 {
		t.Fatalf("Served = %d, want 0", st.Served)
	}
	if len(env.Responses()) != 0 {
		t.Fatalf("failed serves responded: %+v", env.Responses())
	}
}
