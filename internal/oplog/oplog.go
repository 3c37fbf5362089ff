// Package oplog is the durability layer of the serving runtime: a
// totally-ordered, durable log of every mutation applied to a deployment,
// plus the snapshots that bound how much of it must be replayed.
//
// Three pieces compose:
//
//   - Sequencer assigns one monotonic log sequence number (LSN) to every
//     transactional update batch. All writers of a deployment submit
//     through one sequencer, which gives the batches a single total order
//     — the property the paper's correctness argument assumes when it
//     requires every site to evaluate the same fragmentation. The replicas
//     enforce the order (a batch applies only at lastLSN+1), so two
//     gateways interleaving ops can no longer leave sites in different
//     states.
//   - Log is an append-only segmented file log: CRC-framed records, a
//     configurable fsync policy, segment rotation, and truncation once a
//     snapshot covers a prefix. Each segment header carries the LSN the
//     segment starts after, so a restarted process resumes the order
//     instead of forking it even when the log holds no records.
//   - Snapshot is a checkpoint of the whole fragmentation state at an LSN,
//     integrity-checked with fragment.Fingerprint. Snapshot plus log
//     suffix reconstructs the deployment state at any point; the wire
//     layer ships both to replicas that fell behind (catch-up
//     replication).
//
// The record payload codec (ops of a batch) is shared with the wire
// protocol's update and sync frames, so a log record replays byte-exactly
// as it was broadcast.
package oplog

import (
	"encoding/binary"
	"fmt"

	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Record is one sequenced update batch: the unit of the log and of
// catch-up replay.
type Record struct {
	LSN uint64
	Ops []fragment.Op
}

// maxOps bounds the declared op count of one record against hostile
// length prefixes; it comfortably exceeds any real transactional batch.
const maxOps = 1 << 16

// maxLabel bounds one inserted node's label on the wire and on disk.
const maxLabel = 0xFFFF

// AppendOps appends the shared ops codec to b: count u32, then per op the
// kind byte and its operands (little-endian). It is the payload format of
// log records, update frames and sync replay frames.
func AppendOps(b []byte, ops []fragment.Op) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for i, op := range ops {
		b = append(b, byte(op.Kind))
		switch op.Kind {
		case fragment.OpInsertEdge, fragment.OpDeleteEdge:
			b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
			b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
		case fragment.OpInsertNode:
			if len(op.Label) > maxLabel {
				return nil, fmt.Errorf("oplog: op %d: label of %d bytes exceeds the limit", i, len(op.Label))
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(op.Frag)))
			b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Label)))
			b = append(b, op.Label...)
		case fragment.OpDeleteNode:
			b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
		default:
			return nil, fmt.Errorf("oplog: op %d: unknown kind %q", i, byte(op.Kind))
		}
	}
	return b, nil
}

// ReadOps is the inverse of AppendOps, consuming from the cursor. Every
// count and length is bounds-checked so hostile input is rejected with an
// error, never a panic or an implausible allocation.
func ReadOps(r *Cursor) ([]fragment.Op, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if n > maxOps || uint64(n) > uint64(r.Remaining()) { // each op is >= 1 byte
		return nil, fmt.Errorf("oplog: implausible op count %d", n)
	}
	ops := make([]fragment.Op, 0, n)
	for i := 0; i < int(n); i++ {
		kind, err := r.U8()
		if err != nil {
			return nil, err
		}
		op := fragment.Op{Kind: fragment.OpKind(kind)}
		switch op.Kind {
		case fragment.OpInsertEdge, fragment.OpDeleteEdge:
			u, err := r.U32()
			if err != nil {
				return nil, err
			}
			v, err := r.U32()
			if err != nil {
				return nil, err
			}
			op.U, op.V = graph.NodeID(u), graph.NodeID(v)
		case fragment.OpInsertNode:
			f, err := r.U32()
			if err != nil {
				return nil, err
			}
			llen, err := r.U16()
			if err != nil {
				return nil, err
			}
			lb, err := r.Bytes(uint32(llen))
			if err != nil {
				return nil, err
			}
			op.Frag = int(int32(f))
			op.Label = string(lb)
		case fragment.OpDeleteNode:
			u, err := r.U32()
			if err != nil {
				return nil, err
			}
			op.U = graph.NodeID(u)
		default:
			return nil, fmt.Errorf("oplog: op %d: unknown kind %q", i, kind)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// Cursor is a bounds-checked reader over a codec payload.
type Cursor struct {
	b   []byte
	off int
}

// NewCursor wraps b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Remaining reports the unread byte count.
func (r *Cursor) Remaining() int { return len(r.b) - r.off }

// U8 reads one byte.
func (r *Cursor) U8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, fmt.Errorf("oplog: truncated payload at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// U16 reads one little-endian uint16.
func (r *Cursor) U16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, fmt.Errorf("oplog: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

// U32 reads one little-endian uint32.
func (r *Cursor) U32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("oplog: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

// U64 reads one little-endian uint64.
func (r *Cursor) U64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("oplog: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// Uvarint reads one unsigned varint; a truncated, overlong or padded (not
// shortest-form) one fails, so whatever decodes re-encodes to the same
// bytes. Writers never pad.
func (r *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		return 0, fmt.Errorf("oplog: bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Bytes reads n raw bytes (a view into the payload, not a copy).
func (r *Cursor) Bytes(n uint32) ([]byte, error) {
	if uint64(n) > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("oplog: payload claims %d bytes, %d remain", n, len(r.b)-r.off)
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

// Done rejects trailing bytes, so decode∘encode is the identity.
func (r *Cursor) Done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("oplog: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return nil
}
