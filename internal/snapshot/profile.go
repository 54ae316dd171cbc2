package snapshot

import (
	"fmt"

	"easydram/internal/bloom"
)

// The durable characterization profile. A Profile carries
// one characterization pass's results — per-channel weak-row sets and the
// Bloom filters built over them — keyed by everything that determines the outcome: variation seed,
// topology, profiled tRCD, and profiling granularity (the compatibility
// key; see techniques.ProfileCompatKey). Profiles are stored per-channel so
// multi-channel modules characterize channel by channel and merge here.

// ChannelProfile is one channel's characterization result.
type ChannelProfile struct {
	// Chan is the owning channel index.
	Chan int
	// WeakRows holds the row keys (physical address of each weak row's
	// first line, ascending) of rows that failed at the profiled tRCD.
	WeakRows []uint64
	// Rows is the number of rows profiled on this channel.
	Rows int
	// LinesTried is the number of line reads the pass performed.
	LinesTried int
	// Filter is the weak-row Bloom filter (§8.2); nil when not built.
	Filter *bloom.Filter
}

// Profile is a complete characterization artifact.
type Profile struct {
	// Key is the compatibility key the profile was built under.
	Key string
	// Start, End delimit the profiled physical address range.
	Start, End uint64
	// RCDps is the profiled tRCD in picoseconds.
	RCDps int64
	// Channels holds one entry per profiled channel, ascending by Chan.
	Channels []ChannelProfile
}

// Rows reports the total rows profiled across channels.
func (p *Profile) Rows() int {
	n := 0
	for i := range p.Channels {
		n += p.Channels[i].Rows
	}
	return n
}

// WeakCount reports the total weak rows across channels.
func (p *Profile) WeakCount() int {
	n := 0
	for i := range p.Channels {
		n += len(p.Channels[i].WeakRows)
	}
	return n
}

// WeakFraction reports the profiled weak-row fraction.
func (p *Profile) WeakFraction() float64 {
	rows := p.Rows()
	if rows == 0 {
		return 0
	}
	return float64(p.WeakCount()) / float64(rows)
}

// Encode serializes the profile into a snapshot image (KindProfile).
func (p *Profile) Encode() []byte {
	w := NewWriter(KindProfile, p.Key)
	var meta Enc
	meta.U64(p.Start)
	meta.U64(p.End)
	meta.I64(p.RCDps)
	meta.Int(len(p.Channels))
	w.Section("profile/meta", meta.Payload())
	for i := range p.Channels {
		c := &p.Channels[i]
		var e Enc
		e.Int(c.Chan)
		e.Int(c.Rows)
		e.Int(c.LinesTried)
		e.U64s(c.WeakRows)
		EncodeBloom(&e, c.Filter)
		w.Section(fmt.Sprintf("profile/chan/%d", i), e.Payload())
	}
	return w.Bytes()
}

// DecodeProfile parses and validates a profile image against the caller's
// compatibility key. Every malformed input maps to a named error; callers
// fall back to fresh characterization.
func DecodeProfile(data []byte, key string) (*Profile, error) {
	r, err := ParseExpect(data, KindProfile, key)
	if err != nil {
		return nil, err
	}
	return decodeProfileSections(r)
}

// decodeProfileSections decodes a parsed profile reader.
func decodeProfileSections(r *Reader) (*Profile, error) {
	payload, err := r.Section("profile/meta")
	if err != nil {
		return nil, err
	}
	d := NewDec(payload)
	p := &Profile{Key: r.Key}
	p.Start = d.U64()
	p.End = d.U64()
	p.RCDps = d.I64()
	nch := d.Int()
	if d.Err() == nil && (nch < 0 || nch > maxSections) {
		d.Failf("%d channels", nch)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("profile/meta section: %w", err)
	}
	for i := 0; i < nch; i++ {
		name := fmt.Sprintf("profile/chan/%d", i)
		payload, err := r.Section(name)
		if err != nil {
			return nil, err
		}
		d := NewDec(payload)
		var c ChannelProfile
		c.Chan = d.Int()
		c.Rows = d.Int()
		c.LinesTried = d.Int()
		c.WeakRows = d.U64s()
		c.Filter = DecodeBloom(d)
		if d.Err() == nil {
			if c.Rows < 0 || c.LinesTried < 0 || c.Chan < 0 {
				d.Failf("negative counts")
			} else if len(c.WeakRows) > c.Rows {
				d.Failf("%d weak rows out of %d profiled", len(c.WeakRows), c.Rows)
			}
		}
		for j := 1; j < len(c.WeakRows) && d.Err() == nil; j++ {
			if c.WeakRows[j] <= c.WeakRows[j-1] {
				d.Failf("weak rows not strictly ascending at %d", j)
			}
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%s section: %w", name, err)
		}
		p.Channels = append(p.Channels, c)
	}
	return p, nil
}
