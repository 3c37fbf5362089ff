package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// TestReaderRoundTrip: every append helper and plain uvarint reads back
// through the Reader, and the Reader ends exactly at the end.
func TestReaderRoundTrip(t *testing.T) {
	nodes := []int32{0, 5, 3, math.MaxInt32, 0, 128}
	b := append([]byte{7}, 1)
	b = AppendBool(b, true)
	b = AppendU64(b, 0x1122334455667788)
	for _, v := range []uint64{0, 127, 128, 1 << 32, math.MaxUint64} {
		b = binary.AppendUvarint(b, v)
	}
	b = AppendBlob(b, "label")
	b = AppendBlob(b, []byte{})
	var prev int64
	for _, v := range nodes {
		b = AppendNode(b, v, &prev)
	}
	b = binary.AppendUvarint(b, 3) // a count of three one-byte items
	b = append(b, 'x', 'y', 'z')

	r := NewReader(b)
	if r.U8() != 7 || !r.Bool() || !r.Bool() || r.U64() != 0x1122334455667788 {
		t.Fatalf("fixed fields misread: %v", r.Err())
	}
	for _, want := range []uint64{0, 127, 128, 1 << 32, math.MaxUint64} {
		if got := r.Uvarint(); got != want {
			t.Fatalf("uvarint %d read as %d", want, got)
		}
	}
	if string(r.Blob()) != "label" || len(r.Blob()) != 0 {
		t.Fatalf("blobs misread: %v", r.Err())
	}
	prev = 0
	for _, want := range nodes {
		if got := r.Node(&prev); got != want {
			t.Fatalf("node %d read as %d", want, got)
		}
	}
	if n := r.Count(1); n != 3 || r.Remaining() != 3 {
		t.Fatalf("count %d with %d bytes left", n, r.Remaining())
	}
	if !bytes.Equal(r.Rest(), []byte("xyz")) {
		t.Fatal("rest misread")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: what no writer produces fails the reader, and the
// failure sticks: later reads return zero and Done reports the first one.
func TestReaderRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		read func(*Reader)
	}{
		{"truncated u8", []byte{}, func(r *Reader) { r.U8() }},
		{"flag byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"truncated u64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.U64() }},
		{"padded uvarint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"truncated uvarint", []byte{0x81}, func(r *Reader) { r.Uvarint() }},
		{"overlong uvarint", bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Uvarint() }},
		{"uint above max", []byte{10}, func(r *Reader) { r.Uint(9) }},
		{"int31 above i32", binary.AppendUvarint(nil, 1<<31), func(r *Reader) { r.Int31() }},
		{"count beyond payload", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		{"blob beyond payload", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { r.Blob() }},
		{"node below zero", []byte{1}, func(r *Reader) { var p int64; r.Node(&p) }},
		{"trailing byte", []byte{1, 2}, func(r *Reader) { r.U8() }},
	} {
		name, data := c.name, c.data
		r := NewReader(data)
		c.read(r)
		first := r.Done()
		if first == nil {
			t.Errorf("%s: accepted %x", name, data)
			continue
		}
		if r.U8() != 0 || r.Uvarint() != 0 || r.Remaining() != 0 || r.Done() != first {
			t.Errorf("%s: the failure did not stick", name)
		}
	}
	custom := errors.New("unknown kind")
	r := NewReader([]byte{1, 2})
	r.Fail(custom)
	r.Fail(errors.New("second"))
	if r.U8() != 0 || !errors.Is(r.Done(), custom) {
		t.Fatalf("Fail: got %v, want the first error", r.Done())
	}
}
