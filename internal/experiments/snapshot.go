package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"easydram/internal/core"
	"easydram/internal/snapshot"
	"easydram/internal/stats"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// The durable-characterization sweep: cold vs warm
// characterization through the snapshot store, round-trip identity of the
// stored artifact, corruption handling, and checkpoint/restore identity.
// Wall-clock timings feed the snapshot/warm_start_speedup_x benchall
// metric only — the rendered table stays machine-independent, so benchall
// reports remain byte-identical across hosts and worker counts.

// profilePath names one workload's profile file inside a store directory
// ("" when no store is configured).
func profilePath(dir, name string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, name+".ezdrprof")
}

// characterizeWarm warm-starts one workload's characterization through the
// store directories opt configures (see techniques.CharacterizeWarm); it is
// the entry Figure13 and the WarmStart sweep share.
func characterizeWarm(sys *core.System, name string, extent uint64, opt Options) (p *snapshot.Profile, warm bool, fallback, err error) {
	return techniques.CharacterizeWarm(sys, profilePath(opt.ProfileLoad, name), profilePath(opt.ProfileSave, name),
		0, extent, techniques.ReducedTRCD, opt.FPRate)
}

// WarmStartResult holds the durable-characterization sweep's outcomes.
type WarmStartResult struct {
	Names   []string
	Rows    []int
	WeakPct []float64
	// ColdSecs/WarmSecs are host wall-clock seconds of the cold
	// characterization pass vs the warm store load (machine-dependent;
	// excluded from the rendered table).
	ColdSecs []float64
	WarmSecs []float64
	// IdentityMismatches counts round-trip identity failures: a decoded
	// profile differing from the one encoded, or a checkpoint-restored run
	// differing from the uninterrupted one. Must be zero (cmd/benchall's
	// golden metrics test pins it).
	IdentityMismatches int
	// Fallbacks counts the sweep's loads that degraded to
	// re-characterization; the corruption drill contributes exactly one.
	Fallbacks int64
	// CheckpointBytes is the size of the mid-run checkpoint the restore
	// drill captured.
	CheckpointBytes int
}

// SpeedupX reports the geometric-mean cold/warm characterization speedup.
func (r *WarmStartResult) SpeedupX() float64 {
	var ratios []float64
	for i := range r.ColdSecs {
		if r.WarmSecs[i] > 0 {
			ratios = append(ratios, r.ColdSecs[i]/r.WarmSecs[i])
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return stats.Geomean(ratios)
}

// Table renders the machine-independent sweep summary.
func (r *WarmStartResult) Table() string {
	t := stats.Table{
		Title:  "Durable characterization: store round-trip and restore identity",
		Header: []string{"workload", "rows", "weak rows", "round-trip"},
	}
	for i, n := range r.Names {
		verdict := "identical"
		if r.IdentityMismatches > 0 {
			verdict = "MISMATCH"
		}
		t.AddRow(n, fmt.Sprintf("%d", r.Rows[i]),
			fmt.Sprintf("%.1f%%", r.WeakPct[i]), verdict)
	}
	out := t.Render()
	out += fmt.Sprintf("corruption drill: flipped snapshot byte degraded to re-characterization (%d fallback(s) counted)\n", r.Fallbacks)
	out += fmt.Sprintf("checkpoint drill: mid-run checkpoint (%d bytes) restored bit-identically: %v\n",
		r.CheckpointBytes, r.IdentityMismatches == 0)
	return out
}

// WarmStart runs the durable-characterization sweep: for each workload,
// characterize cold, persist the profile atomically, reload it on a fresh
// system, and require the decoded artifact to be identical; then corrupt a
// stored profile and require a named error plus a counted fallback; then
// checkpoint one run mid-flight, restore it, and require the Result to be
// byte-identical to the uninterrupted run (written to opt.CheckpointPath
// when set). Profiles land in opt.ProfileSave when set, else a temporary
// store.
func WarmStart(opt Options) (*WarmStartResult, error) {
	kernels := workload.Fig13Suite(opt.KernelSize)
	if len(kernels) > 4 {
		kernels = kernels[:4]
	}
	dir := opt.ProfileSave
	if dir == "" {
		tmp, err := os.MkdirTemp("", "easydram-profiles")
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	res := &WarmStartResult{}
	var lastPath string
	for _, k := range kernels {
		extent := workload.Extent(k)
		profCfg := core.TimeScalingA57()
		profCfg.DRAM = core.TechniqueDRAM()
		profCfg.DRAM.Seed = opt.Seed
		profSys, err := core.NewSystem(profCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		t0 := time.Now()
		cold, err := techniques.Characterize(profSys, 0, extent, techniques.ReducedTRCD, opt.FPRate)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		coldSecs := time.Since(t0).Seconds()

		path := profilePath(dir, k.Name)
		if err := snapshot.WriteFile(path, cold.Encode()); err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		warmSys, err := core.NewSystem(profCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		t0 = time.Now()
		warm, err := techniques.LoadProfile(warmSys, path, 0, extent, techniques.ReducedTRCD, opt.FPRate)
		warmSecs := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		if !reflect.DeepEqual(cold, warm) {
			res.IdentityMismatches++
		}

		res.Names = append(res.Names, k.Name)
		res.Rows = append(res.Rows, cold.Rows())
		res.WeakPct = append(res.WeakPct, 100*cold.WeakFraction())
		res.ColdSecs = append(res.ColdSecs, coldSecs)
		res.WarmSecs = append(res.WarmSecs, warmSecs)
		lastPath = path
	}

	// Corruption drill: a flipped byte must surface as a named error and
	// degrade to re-characterization, never load. The re-characterization
	// goes through the shared warm-start path, which returns the fallback.
	if lastPath != "" {
		data, err := os.ReadFile(lastPath)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(lastPath, data, 0o644); err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		k := kernels[len(res.Names)-1]
		extent := workload.Extent(k)
		profCfg := core.TimeScalingA57()
		profCfg.DRAM = core.TechniqueDRAM()
		profCfg.DRAM.Seed = opt.Seed
		profSys, err := core.NewSystem(profCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		wOpt := opt
		wOpt.ProfileLoad, wOpt.ProfileSave = dir, dir
		p, warm, fallback, err := characterizeWarm(profSys, k.Name, extent, wOpt)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		if fallback != nil {
			res.Fallbacks++
		}
		if warm || p == nil {
			res.IdentityMismatches++ // corrupt profile must not load
		}
	}

	// Checkpoint drill: a run checkpointed mid-flight and restored must be
	// byte-identical to the uninterrupted run.
	ckCfg := core.TimeScalingA57()
	ckCfg.DRAM.Seed = opt.Seed
	k := kernels[0]
	baseSys, err := core.NewSystem(ckCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart: %w", err)
	}
	base, err := baseSys.Run(k.Stream())
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart: %w", err)
	}
	ckSys, err := core.NewSystem(ckCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart: %w", err)
	}
	ck, blob, err := ckSys.RunCheckpoint(k.Stream(), base.ProcCycles/2)
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart: %w", err)
	}
	if !reflect.DeepEqual(ck, base) || blob == nil {
		res.IdentityMismatches++
	}
	if blob != nil {
		res.CheckpointBytes = len(blob)
		if opt.CheckpointPath != "" {
			if err := snapshot.WriteFile(opt.CheckpointPath, blob); err != nil {
				return nil, fmt.Errorf("experiments: warmstart: %w", err)
			}
		}
		reSys, err := core.NewSystem(ckCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		restored, err := reSys.RunRestored(k.Stream(), blob)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmstart: %w", err)
		}
		if !reflect.DeepEqual(restored, base) {
			res.IdentityMismatches++
		}
	}

	return res, nil
}
