package snapshot

import (
	"encoding/binary"
	"fmt"
)

// Enc and Dec are the field-level codec the per-layer state exporters
// build section payloads with. All integers are little-endian and
// fixed-width; variable-length data is length-prefixed. Dec carries a
// sticky error so callers can decode a whole payload and check once:
// after the first bounds violation every accessor returns zero values and
// Err() reports ErrTruncated (or whatever Fail recorded).

// Enc appends fields to a growing buffer.
type Enc struct {
	buf []byte
}

// U64 appends a fixed-width unsigned 64-bit field.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// U32 appends a fixed-width unsigned 32-bit field.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// I64 appends a signed 64-bit field.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as a signed 64-bit field.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends a raw byte.
func (e *Enc) Byte(v byte) { e.buf = append(e.buf, v) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed []uint64.
func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Payload returns the accumulated bytes.
func (e *Enc) Payload() []byte { return e.buf }

// Dec reads fields from a payload with a sticky error.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err reports the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Fail records err (if none is recorded yet); later accessors return
// zeros. Layer loaders use it for semantic bounds (geometry mismatches).
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Failf records a formatted ErrCorrupt.
func (d *Dec) Failf(format string, args ...any) {
	d.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// Remaining reports the unread byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Finish fails with ErrCorrupt if undecoded bytes remain, then reports the
// sticky error. Section loaders call it last so a payload with trailing
// garbage (e.g. from a partial overwrite) cannot pass silently.
func (d *Dec) Finish() error {
	if d.err == nil && d.Remaining() != 0 {
		d.Failf("%d trailing bytes", d.Remaining())
	}
	return d.err
}

// Raw consumes n raw bytes (no length prefix). The returned slice aliases
// the payload; callers must copy if they retain it.
func (d *Dec) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a fixed-width unsigned 64-bit field.
func (d *Dec) U64() uint64 {
	b := d.Raw(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a fixed-width unsigned 32-bit field.
func (d *Dec) U32() uint32 {
	b := d.Raw(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads a signed 64-bit field.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int stored as a signed 64-bit field.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads a boolean byte; any value other than 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	b := d.Raw(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("bad bool byte %#x", b[0])
		return false
	}
}

// Byte reads a raw byte.
func (d *Dec) Byte() byte {
	b := d.Raw(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// lenPrefix reads a length prefix and bounds it against the remaining
// payload assuming each element occupies at least elemSize bytes, so
// fuzzed garbage cannot drive huge allocations.
func (d *Dec) lenPrefix(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > d.Remaining()/elemSize) {
		d.Fail(ErrTruncated)
		return 0
	}
	return n
}

// BytesView reads a length-prefixed byte slice; the result aliases the
// payload.
func (d *Dec) BytesView() []byte {
	n := d.lenPrefix(1)
	if d.err != nil {
		return nil
	}
	return d.Raw(n)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	v := d.BytesView()
	if v == nil {
		return ""
	}
	return string(v)
}

// U64s reads a length-prefixed []uint64.
func (d *Dec) U64s() []uint64 {
	n := d.lenPrefix(8)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.U64()
	}
	if d.err != nil {
		return nil
	}
	return v
}
