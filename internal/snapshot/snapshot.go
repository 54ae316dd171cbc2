// Package snapshot implements the durable, integrity-checked serialization
// format behind EasyDRAM's characterization store and whole-system
// checkpoints: a characterization is computed once and served from disk
// to every later run on the same silicon.
//
// A snapshot file is a sectioned binary container:
//
//	magic   [8]byte  "EZDRSNAP"
//	version uint32   format version (callers reject mismatches)
//	kind    uint32   KindProfile or KindCheckpoint
//	key     string   compatibility key (seed/topology/config identity)
//	count   uint32   section count
//	count × section:
//	    name    string
//	    length  uint32
//	    crc32   uint32  (IEEE, over the payload)
//	    payload [length]byte
//
// Robustness is the contract: every load path validates the magic, the
// format version, the per-section CRCs, and the caller's compatibility key.
// Any mismatch, truncation, or garbage byte yields a named error — never a
// panic — so callers can fall back to fresh characterization. Writes go
// through WriteFile: temp file + fsync + rename, so a crash mid-write can
// never leave a loadable half-snapshot.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Format identity.
const (
	// Version is the current format version. Loads of any other version
	// fail with ErrBadVersion; there is no cross-version migration — a
	// stale snapshot simply degrades to re-characterization.
	Version = 1

	// KindProfile marks a characterization-profile snapshot.
	KindProfile uint32 = 1
	// KindCheckpoint marks a whole-core.System checkpoint.
	KindCheckpoint uint32 = 2
)

var magic = [8]byte{'E', 'Z', 'D', 'R', 'S', 'N', 'A', 'P'}

// Named load errors. Callers branch on these with errors.Is; all of them
// mean "this snapshot is unusable — re-characterize" and none of them is
// ever a panic.
var (
	// ErrBadMagic reports a file that is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrBadVersion reports a snapshot written by an incompatible format
	// version.
	ErrBadVersion = errors.New("snapshot: unsupported format version")
	// ErrBadKind reports a snapshot of the wrong kind (a profile where a
	// checkpoint was expected, or vice versa).
	ErrBadKind = errors.New("snapshot: wrong snapshot kind")
	// ErrKeyMismatch reports a snapshot keyed to different silicon or
	// configuration than the caller's.
	ErrKeyMismatch = errors.New("snapshot: compatibility key mismatch")
	// ErrChecksum reports a section whose payload fails its CRC.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrTruncated reports a snapshot (or section payload) that ends
	// mid-field.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrMissingSection reports a structurally valid snapshot that lacks a
	// section the loader requires.
	ErrMissingSection = errors.New("snapshot: missing section")
	// ErrCorrupt reports a payload that decodes structurally but fails a
	// semantic bound (impossible length, geometry mismatch).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// maxSections bounds the section count a reader will accept; it exists so
// fuzzed garbage cannot drive huge allocations. Real snapshots use a few
// dozen sections (one per channel per layer).
const maxSections = 1 << 16

// Writer assembles a snapshot image section by section.
type Writer struct {
	kind     uint32
	key      string
	names    []string
	payloads [][]byte
}

// NewWriter starts a snapshot of the given kind and compatibility key.
func NewWriter(kind uint32, key string) *Writer {
	return &Writer{kind: kind, key: key}
}

// Section appends a named section. The payload is copied; names should be
// unique (Reader.Section returns the first match).
func (w *Writer) Section(name string, payload []byte) {
	w.names = append(w.names, name)
	w.payloads = append(w.payloads, append([]byte(nil), payload...))
}

// Bytes assembles the snapshot image.
func (w *Writer) Bytes() []byte {
	var e Enc
	e.buf = append(e.buf, magic[:]...)
	e.U32(Version)
	e.U32(w.kind)
	e.String(w.key)
	e.U32(uint32(len(w.names)))
	for i, name := range w.names {
		p := w.payloads[i]
		e.String(name)
		e.U32(uint32(len(p)))
		e.U32(crc32.ChecksumIEEE(p))
		e.buf = append(e.buf, p...)
	}
	return e.buf
}

// Reader is a parsed snapshot image.
type Reader struct {
	Kind uint32
	Key  string

	names    []string
	payloads [][]byte
}

// Parse validates a snapshot image end to end — magic, version, structural
// bounds, and every section CRC — and returns a Reader over its sections.
// It never panics on garbage input; every malformed image maps to one of
// the named errors.
func Parse(data []byte) (*Reader, error) {
	d := NewDec(data)
	var m [8]byte
	copy(m[:], d.Raw(8))
	if d.Err() != nil || m != magic {
		return nil, ErrBadMagic
	}
	if v := d.U32(); d.Err() != nil || v != Version {
		if d.Err() != nil {
			return nil, ErrTruncated
		}
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, Version)
	}
	r := &Reader{}
	r.Kind = d.U32()
	r.Key = d.String()
	n := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > maxSections {
		return nil, fmt.Errorf("%w: %d sections", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		name := d.String()
		length := d.U32()
		sum := d.U32()
		payload := d.Raw(int(length))
		if d.Err() != nil {
			return nil, d.Err()
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: section %q", ErrChecksum, name)
		}
		r.names = append(r.names, name)
		r.payloads = append(r.payloads, payload)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return r, nil
}

// ParseExpect parses and additionally enforces the kind and compatibility
// key, the standard prologue of every load path.
func ParseExpect(data []byte, kind uint32, key string) (*Reader, error) {
	r, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if r.Kind != kind {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadKind, r.Kind, kind)
	}
	if r.Key != key {
		return nil, fmt.Errorf("%w: snapshot %q, caller %q", ErrKeyMismatch, r.Key, key)
	}
	return r, nil
}

// Section returns the named section's payload.
func (r *Reader) Section(name string) ([]byte, error) {
	for i, n := range r.names {
		if n == name {
			return r.payloads[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrMissingSection, name)
}

// HasSection reports whether a section with the given name exists.
func (r *Reader) HasSection(name string) bool {
	for _, n := range r.names {
		if n == name {
			return true
		}
	}
	return false
}

// Sections lists the section names in file order.
func (r *Reader) Sections() []string { return append([]string(nil), r.names...) }
