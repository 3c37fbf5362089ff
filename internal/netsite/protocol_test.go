package netsite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 4096)} {
		var buf bytes.Buffer
		n, err := writeFrame(&buf, 42, kindBatch, payload)
		if err != nil {
			t.Fatal(err)
		}
		if n != buf.Len() {
			t.Fatalf("writeFrame reported %d bytes, wrote %d", n, buf.Len())
		}
		id, kind, got, rn, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if id != 42 || kind != kindBatch || !bytes.Equal(got, payload) || rn != n {
			t.Fatalf("round trip: id=%d kind=%q len=%d n=%d", id, kind, len(got), rn)
		}
	}
}

// rawHeader builds just a length prefix, for malformed-frame tests.
func rawHeader(size uint32) []byte {
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, size)
	return hdr
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	_, _, _, _, err := readFrame(bytes.NewReader(rawHeader(0)))
	if err == nil {
		t.Fatal("zero-length frame must be rejected")
	}
}

func TestReadFrameRejectsShortFrame(t *testing.T) {
	// Shorter than id+kind: legal frames carry at least 5 bytes after the
	// length prefix.
	in := append(rawHeader(3), 1, 2, 3)
	_, _, _, _, err := readFrame(bytes.NewReader(in))
	if err == nil {
		t.Fatal("frame shorter than header must be rejected")
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	_, _, _, _, err := readFrame(bytes.NewReader(rawHeader(maxFrame + 1)))
	if err == nil {
		t.Fatal("oversized length prefix must be rejected")
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	// Header promises 100 bytes, the stream ends after 10: the reader must
	// fail with an unexpected-EOF class error, not block or fabricate.
	in := append(rawHeader(100), bytes.Repeat([]byte{7}, 10)...)
	_, _, _, _, err := readFrame(bytes.NewReader(in))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	_, _, _, _, err := readFrame(bytes.NewReader([]byte{1, 0}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}
