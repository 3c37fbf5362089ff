package oplog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"distreach/internal/codec"
	"distreach/internal/fragment"
)

// FuzzOpsCodec throws arbitrary bytes at the shared batch-ops codec (log
// records, update frames and sync replay frames all embed it): whatever
// decodes must re-encode byte-identically; the rest must be rejected with
// an error, never a panic or an implausible allocation.
func FuzzOpsCodec(f *testing.F) {
	seed, err := AppendOps(nil, []fragment.Op{
		{Kind: fragment.OpInsertEdge, U: 1, V: 2},
		{Kind: fragment.OpDeleteEdge, U: 0xFFFFFF, V: 0},
		{Kind: fragment.OpInsertNode, Label: "A", Frag: -1},
		{Kind: fragment.OpDeleteNode, U: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := AppendOps(nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                     // hostile count
	f.Add(seed[:len(seed)-2])                                 // truncated op
	f.Add(append([]byte{1}, 'z', 0, 0))                       // unknown kind
	f.Add([]byte{1, byte(fragment.OpDeleteNode), 0x87, 0x00}) // padded node ID
	// The retired fixed-width layout of one edge insert: count u32, kind,
	// u and v u32.
	f.Add([]byte{1, 0, 0, 0, byte(fragment.OpInsertEdge), 1, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := codec.NewReader(data)
		ops := ReadOps(r)
		if r.Done() != nil {
			return
		}
		re, err := AppendOps(nil, ops)
		if err != nil {
			t.Fatalf("re-encode of decoded ops failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("ops round trip drifted")
		}
	})
}

// FuzzSegmentScan throws arbitrary file contents at the segment scanner
// and record reader: a crashed or corrupted log file must never panic the
// recovery path — a torn tail is dropped, garbage is rejected.
func FuzzSegmentScan(f *testing.F) {
	// A well-formed segment with two records.
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	hdr[5] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:], 0)
	frame := func(body []byte) []byte {
		fr := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		fr = binary.LittleEndian.AppendUint32(fr, crc32.Checksum(body, crcTable))
		return append(fr, body...)
	}
	seg := append([]byte(nil), hdr...)
	for lsn := uint64(1); lsn <= 2; lsn++ {
		body, _ := AppendRecord(nil, Record{LSN: lsn, Ops: []fragment.Op{{Kind: fragment.OpInsertEdge, U: 0, V: 1}}})
		seg = append(seg, frame(body)...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])               // torn tail
	f.Add(hdr)                            // empty segment
	f.Add([]byte("DRWAL"))                // truncated header
	f.Add(bytes.Repeat([]byte{0xA5}, 64)) // garbage
	mut := append([]byte(nil), seg...)
	mut[segHeaderSize+recHeaderSize+2] ^= 0xFF // corrupt first record body
	f.Add(mut)
	// A record whose CRC holds but whose op count is a padded varint.
	f.Add(append(append([]byte(nil), hdr...), frame([]byte{1, 0x81, 0x00, byte(fragment.OpDeleteNode), 0})...))
	// The retired version 1 segment: its header, and a record body with a
	// u64 LSN and fixed-width ops.
	old := append([]byte(nil), hdr...)
	old[5] = 1
	oldBody := binary.LittleEndian.AppendUint64(nil, 1)
	oldBody = append(binary.LittleEndian.AppendUint32(oldBody, 1), byte(fragment.OpDeleteNode), 0, 0, 0, 0)
	f.Add(append(old, frame(oldBody)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := scanSegment(path, true)
		if err != nil {
			return // rejecting is legal; not panicking is the property
		}
		if seg.size > int64(len(data)) {
			t.Fatalf("scan claims %d bytes of a %d-byte file", seg.size, len(data))
		}
		recs, err := readSegmentRecords(seg)
		if err != nil {
			t.Fatalf("records the scanner accepted failed to read: %v", err)
		}
		last := seg.base
		for _, r := range recs {
			if r.LSN != last+1 {
				t.Fatalf("record LSNs not contiguous: %d after %d", r.LSN, last)
			}
			last = r.LSN
		}
		if last != seg.last {
			t.Fatalf("scan says last=%d, records end at %d", seg.last, last)
		}
	})
}
