package easydram

import (
	"fmt"

	"easydram/internal/dram"
	"easydram/internal/snapshot"
	"easydram/internal/techniques"
)

// Durable characterization and crash-safe checkpointing.
// Profiles and checkpoints are versioned, checksummed snapshot files
// written atomically (temp file + fsync + rename); every load validates
// the format version, per-section CRCs, and a compatibility key, and any
// corrupt, stale, or mismatched artifact returns a named error so callers
// degrade gracefully to fresh characterization.

// WeakRowProfile is a durable characterization artifact: per-channel
// weak-row sets and Bloom filters keyed to the module's variation seed,
// topology, profiled tRCD, and profiling granularity.
type WeakRowProfile struct {
	p *snapshot.Profile
}

// WeakFraction reports the profiled weak-row fraction.
func (p *WeakRowProfile) WeakFraction() float64 { return p.p.WeakFraction() }

// Rows reports the total rows profiled across channels.
func (p *WeakRowProfile) Rows() int { return p.p.Rows() }

// Channels reports how many channels the profile covers.
func (p *WeakRowProfile) Channels() int { return len(p.p.Channels) }

// Characterize profiles every DRAM row covering [start, end) at rcd on
// every channel of the module and returns the durable artifact. Requires
// WithDataTracking on the profiling system.
func (s *System) Characterize(start, end uint64, rcd PS, fpRate float64) (*WeakRowProfile, error) {
	p, err := techniques.Characterize(s.sys, start, end, rcd, fpRate)
	if err != nil {
		return nil, fmt.Errorf("easydram: %w", err)
	}
	return &WeakRowProfile{p: p}, nil
}

// SaveProfile writes the profile to path atomically (temp file + fsync +
// rename): a crash mid-write can never leave a loadable half-profile.
func (s *System) SaveProfile(path string, p *WeakRowProfile) error {
	if err := snapshot.WriteFile(path, p.p.Encode()); err != nil {
		return fmt.Errorf("easydram: %w", err)
	}
	return nil
}

// LoadProfile loads a profile written by SaveProfile and validates it
// end to end: format version, per-section CRCs, and the compatibility key
// derived from this system's seed, topology, and the given profiling
// parameters. Any mismatch, truncation, or corruption returns a named
// snapshot error — callers fall back to Characterize.
func (s *System) LoadProfile(path string, start, end uint64, rcd PS, fpRate float64) (*WeakRowProfile, error) {
	p, err := techniques.LoadProfile(s.sys, path, start, end, rcd, fpRate)
	if err != nil {
		return nil, err
	}
	return &WeakRowProfile{p: p}, nil
}

// ProfileWeakRowsWarm is the warm-start characterization entry point: it
// loads the profile at path when one exists and matches this system's
// compatibility key, and otherwise characterizes from scratch and saves
// the result to path for the next run. warm reports whether the stored
// profile was used. A failed load is never fatal: fallback is the error a
// corrupt, stale or foreign profile degraded from, and nil for a missing
// file (an ordinary cold start).
func (s *System) ProfileWeakRowsWarm(path string, start, end uint64, rcd PS, fpRate float64) (p *WeakRowProfile, warm bool, fallback, err error) {
	sp, warm, fallback, err := techniques.CharacterizeWarm(s.sys, path, path, start, end, rcd, fpRate)
	if err != nil {
		return nil, false, fallback, fmt.Errorf("easydram: %w", err)
	}
	return &WeakRowProfile{p: sp}, warm, fallback, nil
}

// Provider rebuilds the reduced-tRCD scheduler hook from the profile:
// each channel's controller consults its own channel's weak-row filter.
// s supplies the address mapping — the profiling system, or any system
// with the same topology and DRAM geometry (which the compatibility key
// guarantees for a loaded profile).
func (p *WeakRowProfile) Provider(s *System, reduced PS) TRCDProvider {
	inner := techniques.ProviderFromProfile(p.p, s.sys.Mapper(), reduced)
	return func(ch, bank, row int) PS {
		return inner(dram.Addr{Chan: ch, Bank: bank, Row: row})
	}
}

// Checkpoint runs the kernel like Run and additionally captures a
// whole-system checkpoint at the first quiescent point at or after `at`
// emulated processor cycles. The returned blob is nil — with no error —
// when the run finished before reaching such a point; the Result always
// covers the complete run, bit-identical to one never checkpointed.
func (s *System) Checkpoint(k Kernel, at Cycles) (Result, []byte, error) {
	res, blob, err := s.sys.RunCheckpoint(k.Stream(), at)
	if err != nil {
		return res, nil, fmt.Errorf("easydram: %w", err)
	}
	return res, blob, nil
}

// Restore resumes a checkpointed run on a freshly built System with the
// same configuration and kernel, producing a Result byte-identical to the
// uninterrupted run. Corrupt, truncated, or mismatched blobs return a
// named snapshot error; callers fall back to a fresh Run.
func (s *System) Restore(k Kernel, blob []byte) (Result, error) {
	res, err := s.sys.RunRestored(k.Stream(), blob)
	if err != nil {
		return res, err
	}
	return res, nil
}

// SaveSnapshot writes a checkpoint blob (or any snapshot image) to path
// atomically.
func SaveSnapshot(path string, blob []byte) error {
	return snapshot.WriteFile(path, blob)
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot. Structural
// validation happens at Restore/LoadProfile time.
func LoadSnapshot(path string) ([]byte, error) {
	return snapshot.ReadFile(path)
}
