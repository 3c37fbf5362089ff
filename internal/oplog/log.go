package oplog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"distreach/internal/codec"
)

// SyncPolicy selects when the log flushes appends to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record acknowledged is a
	// record that survives power loss. The durable default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: fast, survives process crashes
	// but not machine crashes. For benchmarks and tests.
	SyncNever
)

// ParseSyncPolicy resolves the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "never", "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("oplog: unknown fsync policy %q (want always or never)", s)
}

// Segment file layout. Every segment starts with a fixed header whose
// base field is the LSN the segment starts after (its first record, if
// any, carries base+1). The header is what lets a restarted sequencer
// resume the total order even when every record has been truncated away:
// the active segment always survives truncation, and its base (plus any
// records after it) pins the last assigned LSN.
//
//	header := magic "DRWAL" u8*5 | version u8 | reserved u16 | base u64
//	record := size u32 | crc32c u32 | body          (size = len(body))
//	body   := lsn uvarint | ops (AppendRecord)
//
// The header and the record frame are fixed-width little-endian, because
// the torn-tail scan reads them at fixed offsets; the body is the record
// codec log replay and sync replay frames share. Version 1 wrote the body's
// LSN and ops fixed-width; such a segment is refused with its version.
const (
	segMagic      = "DRWAL"
	segVersion    = 2
	segHeaderSize = 5 + 1 + 2 + 8
	recHeaderSize = 8
	minRecordBody = 2 // an LSN and an op count, one byte each at least
)

// maxRecordBody bounds one record against corrupt size prefixes.
const maxRecordBody = 1 << 26

// defaultSegmentBytes rotates segments at 4 MiB.
const defaultSegmentBytes = 4 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// LogOptions tunes a Log at open time. The zero value is a durable
// default: fsync on every append, 4 MiB segments.
type LogOptions struct {
	Fsync        SyncPolicy
	SegmentBytes int64 // rotate the active segment past this size; 0 = 4 MiB
}

// segment is one on-disk log file.
type segment struct {
	path string
	base uint64 // LSN the segment starts after
	last uint64 // LSN of its last record (== base when empty)
	size int64
}

// Log is the durable segmented record log. Safe for concurrent use;
// appends are strictly ordered (each record's LSN must be last+1).
//
// Group commit: AppendNoSync writes a record's frame without flushing and
// returns its write sequence number; SyncCommit(seq) makes everything up
// to seq durable with at most one fsync — concurrent committers
// piggyback on whichever flush covers them instead of queueing one fsync
// each. Append remains the single-writer path (frame + immediate flush).
type Log struct {
	dir  string
	opts LogOptions

	mu     sync.Mutex
	segs   []segment // sorted by base; the last one is active
	active *os.File
	last   uint64 // last appended (or recovered) LSN

	// Group-commit bookkeeping: writeSeq numbers written frames (under
	// mu); durableSeq is the highest writeSeq known flushed (advanced
	// monotonically); syncMu serializes the actual fsyncs so committers
	// coalesce behind one in-flight flush; syncs counts fsyncs issued
	// (observability and the coalescing tests). syncHook, when set (tests
	// only), runs before each SyncCommit flush while syncMu is held —
	// widening the window concurrent committers pile up in.
	writeSeq   uint64
	durableSeq atomic.Uint64
	syncMu     sync.Mutex
	syncs      atomic.Int64
	syncHook   func()
}

// OpenLog opens (or creates) the log in dir, scanning existing segments
// and recovering the last LSN. A torn or corrupt record at the tail of
// the newest segment is truncated away (the usual crash outcome: the
// record was never acknowledged); corruption anywhere else is an error.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	sort.Strings(names)
	l := &Log{dir: dir, opts: opts}
	for i, name := range names {
		seg, err := scanSegment(name, i == len(names)-1)
		if err != nil {
			return nil, err
		}
		if len(l.segs) > 0 && seg.base != l.segs[len(l.segs)-1].last {
			return nil, fmt.Errorf("oplog: segment %s starts after LSN %d but the previous one ends at %d",
				filepath.Base(name), seg.base, l.segs[len(l.segs)-1].last)
		}
		l.segs = append(l.segs, seg)
		l.last = seg.last
	}
	if len(l.segs) == 0 {
		if err := l.rotateLocked(0); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(l.segs[len(l.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("oplog: %w", err)
		}
		// The tail may have been truncated past a torn record; O_APPEND
		// writes after the surviving prefix.
		if err := f.Truncate(l.segs[len(l.segs)-1].size); err != nil {
			f.Close()
			return nil, fmt.Errorf("oplog: %w", err)
		}
		l.active = f
	}
	return l, nil
}

// scanSegment reads one segment's header and walks its records. When tail
// is true, a torn or corrupt suffix is dropped (size records the surviving
// prefix); otherwise it is an error.
func scanSegment(path string, tail bool) (segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return segment{}, fmt.Errorf("oplog: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return segment{}, fmt.Errorf("oplog: %s: short header: %w", filepath.Base(path), err)
	}
	if string(hdr[:5]) != segMagic {
		return segment{}, fmt.Errorf("oplog: %s: bad segment header", filepath.Base(path))
	}
	if hdr[5] != segVersion {
		return segment{}, fmt.Errorf("oplog: %s: unsupported segment version %d (want %d)", filepath.Base(path), hdr[5], segVersion)
	}
	seg := segment{path: path, base: binary.LittleEndian.Uint64(hdr[8:]), size: segHeaderSize}
	seg.last = seg.base
	rh := make([]byte, recHeaderSize)
	for {
		if _, err := io.ReadFull(f, rh); err != nil {
			if err == io.EOF {
				return seg, nil
			}
			if tail {
				return seg, nil // torn record header: drop it
			}
			return segment{}, fmt.Errorf("oplog: %s: torn record header mid-log", filepath.Base(path))
		}
		size := binary.LittleEndian.Uint32(rh)
		crc := binary.LittleEndian.Uint32(rh[4:])
		if size < minRecordBody || size > maxRecordBody {
			if tail {
				return seg, nil
			}
			return segment{}, fmt.Errorf("oplog: %s: implausible record size %d", filepath.Base(path), size)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(f, body); err != nil {
			if tail {
				return seg, nil
			}
			return segment{}, fmt.Errorf("oplog: %s: torn record body mid-log", filepath.Base(path))
		}
		if crc32.Checksum(body, crcTable) != crc {
			if tail {
				return seg, nil
			}
			return segment{}, fmt.Errorf("oplog: %s: record CRC mismatch mid-log", filepath.Base(path))
		}
		// A record whose CRC holds was written whole, so one that does not
		// decode is corruption, not a torn tail, wherever it sits.
		r := codec.NewReader(body)
		lsn := ReadRecord(r).LSN
		if err := r.Done(); err != nil {
			return segment{}, fmt.Errorf("oplog: %s: record after LSN %d: %w", filepath.Base(path), seg.last, err)
		}
		if lsn != seg.last+1 {
			return segment{}, fmt.Errorf("oplog: %s: record LSN %d after %d", filepath.Base(path), lsn, seg.last)
		}
		seg.last = lsn
		seg.size += int64(recHeaderSize) + int64(size)
	}
}

func segName(base uint64) string { return fmt.Sprintf("seg-%016x.wal", base) }

// rotateLocked opens a fresh active segment starting after base.
func (l *Log) rotateLocked(base uint64) error {
	path := filepath.Join(l.dir, segName(base))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	hdr[5] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:], base)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("oplog: %w", err)
	}
	if l.opts.Fsync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("oplog: %w", err)
		}
	}
	if l.active != nil {
		// Unsynced group-commit frames may still sit in the outgoing
		// segment; flush before closing so SyncCommit's contract (one
		// flush covers every earlier frame) survives rotation. Everything
		// written so far lives in closed-and-synced segments after this,
		// so the whole write sequence is durable.
		if l.opts.Fsync == SyncAlways {
			if err := l.active.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("oplog: %w", err)
			}
			advanceMax(&l.durableSeq, l.writeSeq)
		}
		l.active.Close()
	}
	l.active = f
	l.segs = append(l.segs, segment{path: path, base: base, last: base, size: segHeaderSize})
	return nil
}

// Append durably appends one record. The record's LSN must be exactly
// LastLSN+1 — the log stores the total order, it does not invent one.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	seq, err := l.appendFrameLocked(rec)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.SyncCommit(seq)
}

// AppendNoSync writes one record's frame without flushing and returns the
// write sequence number a later SyncCommit must cover for the record to
// be durable. The group-commit half of Append: several writers append
// their frames back to back, then share one flush.
func (l *Log) AppendNoSync(rec Record) (seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendFrameLocked(rec)
}

// appendFrameLocked writes one record frame (rotating first when the
// active segment is full) and advances the write sequence. Caller holds
// l.mu; the frame is not flushed.
func (l *Log) appendFrameLocked(rec Record) (seq uint64, err error) {
	body, err := AppendRecord(make([]byte, 0, 16), rec)
	if err != nil {
		return 0, err
	}
	if l.active == nil {
		return 0, fmt.Errorf("oplog: log closed")
	}
	if rec.LSN != l.last+1 {
		return 0, fmt.Errorf("oplog: append LSN %d, log is at %d", rec.LSN, l.last)
	}
	cur := &l.segs[len(l.segs)-1]
	if cur.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(l.last); err != nil {
			return 0, err
		}
		cur = &l.segs[len(l.segs)-1]
	}
	frame := make([]byte, recHeaderSize+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, crcTable))
	copy(frame[recHeaderSize:], body)
	if _, err := l.active.Write(frame); err != nil {
		return 0, fmt.Errorf("oplog: %w", err)
	}
	cur.size += int64(len(frame))
	cur.last = rec.LSN
	l.last = rec.LSN
	l.writeSeq++
	return l.writeSeq, nil
}

// SyncCommit makes every frame up to write sequence seq durable. Under
// SyncAlways, committers whose seq is already covered return without
// touching the disk; the rest serialize on syncMu, re-check, and the
// first one through flushes for everybody queued behind it — N
// concurrent commits cost far fewer than N fsyncs. Under SyncNever it is
// a no-op (the OS flushes eventually, same as Append always behaved).
func (l *Log) SyncCommit(seq uint64) error {
	if l.opts.Fsync != SyncAlways {
		return nil
	}
	if l.durableSeq.Load() >= seq {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durableSeq.Load() >= seq {
		return nil // a peer's flush covered us while we queued
	}
	l.mu.Lock()
	f := l.active
	cover := l.writeSeq
	l.mu.Unlock()
	if f == nil {
		return fmt.Errorf("oplog: log closed")
	}
	if l.syncHook != nil {
		l.syncHook()
	}
	if err := f.Sync(); err != nil {
		// A rotation can close f between the capture above and the Sync —
		// but rotation flushes the outgoing segment first, so if durableSeq
		// now covers seq the commit actually succeeded.
		if l.durableSeq.Load() >= seq {
			return nil
		}
		return fmt.Errorf("oplog: %w", err)
	}
	l.syncs.Add(1)
	advanceMax(&l.durableSeq, cover)
	return nil
}

// SyncCount reports how many fsyncs the log has issued via SyncCommit —
// the group-commit tests assert it stays well under one per append.
func (l *Log) SyncCount() int64 { return l.syncs.Load() }

// advanceMax raises a monotonically, never lowering it.
func advanceMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LastLSN reports the LSN of the newest record (or the recovered base when
// the log is empty): the point the total order resumes from.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// ReadFrom returns every record with LSN >= from, in order. ok is false
// when the log no longer holds that prefix (truncated after a snapshot):
// the caller must fall back to snapshot transfer.
func (l *Log) ReadFrom(from uint64) (recs []Record, ok bool, err error) {
	if from == 0 {
		from = 1
	}
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if len(segs) == 0 || from <= segs[0].base {
		return nil, false, nil
	}
	for _, seg := range segs {
		if seg.last < from {
			continue
		}
		srecs, err := readSegmentRecords(seg)
		if err != nil {
			return nil, false, err
		}
		for _, r := range srecs {
			if r.LSN >= from {
				recs = append(recs, r)
			}
		}
	}
	return recs, true, nil
}

// readSegmentRecords decodes every record of one scanned segment (only the
// prefix recorded in seg.size, so a torn tail is never replayed).
func readSegmentRecords(seg segment) ([]Record, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	if int64(len(data)) > seg.size {
		data = data[:seg.size]
	}
	if len(data) < segHeaderSize {
		return nil, fmt.Errorf("oplog: %s: short segment", filepath.Base(seg.path))
	}
	var recs []Record
	off := segHeaderSize
	for off+recHeaderSize <= len(data) {
		size := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if size < minRecordBody || size > maxRecordBody || off+recHeaderSize+int(size) > len(data) {
			return nil, fmt.Errorf("oplog: %s: corrupt record at offset %d", filepath.Base(seg.path), off)
		}
		body := data[off+recHeaderSize : off+recHeaderSize+int(size)]
		if crc32.Checksum(body, crcTable) != crc {
			return nil, fmt.Errorf("oplog: %s: record CRC mismatch at offset %d", filepath.Base(seg.path), off)
		}
		r := codec.NewReader(body)
		rec := ReadRecord(r)
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("oplog: %s: record %d: %w", filepath.Base(seg.path), rec.LSN, err)
		}
		recs = append(recs, rec)
		off += recHeaderSize + int(size)
	}
	return recs, nil
}

// TruncateThrough drops whole segments whose records are all <= lsn —
// called after a snapshot at lsn makes that prefix redundant. The active
// segment always survives, so the last LSN stays pinned on disk.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i < len(l.segs)-1 && seg.last <= lsn {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("oplog: %w", err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// AdvanceTo jumps the log forward to lsn without records: every existing
// segment is dropped (their records precede the gap, so no contiguous
// replay through them is possible anyway) and a fresh segment starting
// after lsn becomes active. Used when the deployment turns out to be ahead
// of the write-ahead log — the order is preserved, and replicas older than
// lsn are caught up by snapshot transfer instead of replay.
func (l *Log) AdvanceTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.last {
		return nil
	}
	for _, seg := range l.segs {
		if seg.path != "" {
			os.Remove(seg.path)
		}
	}
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.segs = nil
	if err := l.rotateLocked(lsn); err != nil {
		return err
	}
	l.last = lsn
	return nil
}

// Stats reports the segment count and total bytes on disk.
func (l *Log) Stats() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		bytes += seg.size
	}
	return len(l.segs), bytes
}

// Close flushes and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}
