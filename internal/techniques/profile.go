package techniques

import (
	"errors"
	"fmt"
	"io/fs"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/snapshot"
)

// The durable-characterization bridge (ROADMAP item 3): one profiling pass
// produces a snapshot.Profile — per-channel weak-row sets and Bloom
// filters keyed to the silicon — that round-trips through the snapshot
// store and rebuilds the reduced-tRCD scheduler hook without re-profiling.

// ProfileCompatKey canonically identifies a characterization outcome: the
// variation seed (the silicon), the module topology, the profiled tRCD,
// the profiling granularity (row size and bank count, i.e. the address
// mapping), the profiled range, and the filter's false-positive budget. A
// stored profile loads only under an identical key; any drift degrades to
// re-characterization.
func ProfileCompatKey(sys *core.System, start, end uint64, rcd clock.PS, fpRate float64) string {
	cfg := sys.Config()
	m := sys.Mapper()
	return fmt.Sprintf("profile:v2|seed=%d|topo=%s|rcd=%d|rowbytes=%d|banks=%d|range=%#x-%#x|fp=%g",
		cfg.DRAM.Seed, sys.Topology(), int64(rcd), m.RowBytes(), m.Banks(), start, end, fpRate)
}

// Characterize profiles [start, end) at rcd across every channel of the
// module and assembles the durable artifact: per-channel weak-row sets
// plus a per-channel Bloom filter sized for the observed weak population
// at fpRate. The filter seed ties to the variation seed so a rebuilt
// provider is bit-identical to the one the pass would hand out directly.
func Characterize(sys *core.System, start, end uint64, rcd clock.PS, fpRate float64) (*snapshot.Profile, error) {
	weak, stats, err := ProfileWeakRows(sys, start, end, rcd)
	if err != nil {
		return nil, err
	}
	p := &snapshot.Profile{
		Key:   ProfileCompatKey(sys, start, end, rcd, fpRate),
		Start: start,
		End:   end,
		RCDps: int64(rcd),
	}
	m := sys.Mapper()
	nch := sys.Topology().Channels
	perChan := make([][]uint64, nch)
	for _, key := range weak {
		ch := m.Map(key).Chan
		perChan[ch] = append(perChan[ch], key)
	}
	// Row and line counts are re-derived per channel from the covered-row
	// walk so the stored totals match ProfileStats exactly.
	rowsPerChan := make([]int, nch)
	for _, g := range coveredRows(m, start, end) {
		rowsPerChan[g.ch] += len(g.rows)
	}
	for ch := 0; ch < nch; ch++ {
		filter, err := BuildWeakRowFilter(perChan[ch], fpRate, sys.Config().DRAM.Seed+uint64(ch))
		if err != nil {
			return nil, err
		}
		cp := snapshot.ChannelProfile{
			Chan:     ch,
			WeakRows: perChan[ch],
			Rows:     rowsPerChan[ch],
			Filter:   filter,
		}
		p.Channels = append(p.Channels, cp)
	}
	// LinesTried is a pass-global number; attribute it to channel 0 so the
	// profile's totals reproduce the ProfileStats the pass reported.
	if nch > 0 {
		p.Channels[0].LinesTried = stats.LinesTried
	}
	return p, nil
}

// LoadProfile reads the profile stored at path and decodes it under the
// compatibility key of characterizing [start, end) at rcd on sys. A stale,
// corrupt or foreign profile is a named snapshot error.
func LoadProfile(sys *core.System, path string, start, end uint64, rcd clock.PS, fpRate float64) (*snapshot.Profile, error) {
	data, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return snapshot.DecodeProfile(data, ProfileCompatKey(sys, start, end, rcd, fpRate))
}

// CharacterizeWarm is the warm-start characterization routine: it loads the
// profile stored at load when one exists under this pass's compatibility
// key, and otherwise characterizes [start, end) at rcd from scratch and,
// when save is set, stores the result there. warm reports whether the
// stored profile was used. A present-but-unusable file (corrupt, stale,
// keyed to different silicon) degrades to re-characterization, and
// fallback is the load error it degraded from; a missing file is an
// ordinary cold start with a nil fallback. An empty path skips the load or
// the save.
func CharacterizeWarm(sys *core.System, load, save string, start, end uint64, rcd clock.PS, fpRate float64) (p *snapshot.Profile, warm bool, fallback error, err error) {
	if load != "" {
		p, err := LoadProfile(sys, load, start, end, rcd, fpRate)
		if err == nil {
			return p, true, nil, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			fallback = err
		}
	}
	p, err = Characterize(sys, start, end, rcd, fpRate)
	if err != nil {
		return nil, false, fallback, err
	}
	if save != "" {
		if err := snapshot.WriteFile(save, p.Encode()); err != nil {
			return nil, false, fallback, err
		}
	}
	return p, false, fallback, nil
}

// ProviderFromProfile rebuilds the reduced-tRCD scheduler hook from a
// stored profile: each channel's controller consults its own channel's
// filter. The hook is bit-identical to the one a fresh characterization
// pass would produce under the same key.
func ProviderFromProfile(p *snapshot.Profile, m smc.Mapper, reduced clock.PS) smc.TRCDProvider {
	byChan := map[int]smc.TRCDProvider{}
	for i := range p.Channels {
		c := &p.Channels[i]
		if c.Filter != nil {
			byChan[c.Chan] = TRCDProvider(c.Filter, m, p.Start, p.End, reduced)
		}
	}
	return func(a dram.Addr) clock.PS {
		if prov, ok := byChan[a.Chan]; ok {
			return prov(a)
		}
		return 0 // unprofiled channel: nominal
	}
}
