// Package codec is the one payload codec of the wire protocol and the
// durable formats: a sticky-error Reader and the append helpers its layouts
// need. Every integer is a shortest-form unsigned varint, except the
// random or clock-seeded identifiers (fragmentation instance, update nonce,
// fingerprint, partitioner seed, trace ID), which are fixed little-endian
// u64s (AppendU64, Reader.U64): a varint would spend ten bytes on most of
// them. A node ID in a sorted list is a zigzag varint delta from the
// previous one (AppendNode, Reader.Node).
//
// A Reader rejects what no writer produces — a truncated or padded varint,
// a count larger than the bytes left could hold, trailing bytes — so
// whatever decodes re-encodes to the same bytes. The first failure sticks:
// every later read returns zero, and Err or Done report it, so a decoder
// checks once instead of after every field.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Reader decodes one payload. The zero value reads nothing; NewReader
// wraps a buffer.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unread byte count (0 after a failure).
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Rest returns the unread bytes (a view, not a copy) and consumes them.
func (r *Reader) Rest() []byte {
	v := r.b[r.off:]
	r.off = len(r.b)
	return v
}

// Fail records err unless a failure is recorded already: a decoder's own
// check (an unknown kind, a value out of range) sticks like a malformed
// varint does. Every later read returns zero.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.off = len(r.b)
	}
}

func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.Fail(fmt.Errorf("codec: "+format, args...))
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.off < len(r.b) {
		v := r.b[r.off]
		r.off++
		return v
	}
	r.truncated()
	return 0
}

func (r *Reader) truncated() { r.failf("truncated payload at offset %d", r.off) }

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.failf("flag byte %d at offset %d", v, r.off-1)
	}
	return v == 1
}

// U64 reads a fixed little-endian u64 (an identifier, see the package doc).
func (r *Reader) U64() uint64 {
	if len(r.b)-r.off < 8 {
		r.truncated()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Uvarint reads a shortest-form unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 { // the one-byte common case
		v := r.b[r.off]
		r.off++
		return uint64(v)
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || r.b[r.off+n-1] == 0 { // truncated, overlong or padded
		r.failf("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Uint reads a uvarint no larger than max.
func (r *Reader) Uint(max uint64) uint64 {
	v := r.Uvarint()
	if v > max {
		r.failf("value %d above %d at offset %d", v, max, r.off)
		return 0
	}
	return v
}

// Int31 reads a uvarint that fits a non-negative int32: a node ID, a
// distance, an automaton state.
func (r *Reader) Int31() int32 {
	return int32(r.Uint(1<<31 - 1))
}

// Count reads a uvarint item count and guards it against hostile payloads:
// each counted item occupies at least min bytes of what is left, so no
// allocation sized by a count can outgrow the payload.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()/min) {
		r.failf("count %d with %d bytes left", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Blob reads a uvarint-length-prefixed byte section: a view into the
// payload, not a copy.
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Node reads a node ID written by AppendNode after prev and advances prev.
func (r *Reader) Node(prev *int64) int32 {
	u := r.Uvarint()
	v := *prev + int64(u>>1)
	if u&1 != 0 {
		v = *prev - int64(u>>1) - 1
	}
	if v < 0 || v > 1<<31-1 {
		r.failf("node delta out of range at offset %d", r.off)
		return 0
	}
	*prev = v
	return int32(v)
}

// Done reports the first failure, or an error when bytes are left over.
func (r *Reader) Done() error {
	if r.off != len(r.b) {
		r.failf("%d trailing bytes in payload", len(r.b)-r.off)
	}
	return r.err
}

// AppendU64 appends v as a fixed little-endian u64 (an identifier).
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendBool appends v as a 0 or 1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBlob appends p with its uvarint length ahead of it.
func AppendBlob[T []byte | string](b []byte, p T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendNode appends node v as a zigzag varint delta from prev (the
// previous node of the list, 0 before the first) and advances prev: the
// nodes of a sorted list cost a byte or two each.
func AppendNode(b []byte, v int32, prev *int64) []byte {
	d := int64(v) - *prev
	*prev = int64(v)
	if d >= 0 {
		return binary.AppendUvarint(b, uint64(d)<<1)
	}
	return binary.AppendUvarint(b, uint64(-d-1)<<1|1)
}
