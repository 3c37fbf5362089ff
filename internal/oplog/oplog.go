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
	"math"

	"distreach/internal/codec"
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

// AppendOps appends the shared ops codec to b (internal/codec): count
// uvarint, then per op the kind byte and its operands —
//
//	'i' insert edge | 'd' delete edge: u uvarint | v uvarint
//	'n' insert node: frag+1 uvarint (0: the partitioner places it) | label blob
//	'r' delete node: v uvarint
//
// It is the payload format of log records, update frames and sync replay
// frames. Node IDs must be non-negative and a placement -1 or a fragment
// index, as the decoder accepts nothing else.
func AppendOps(b []byte, ops []fragment.Op) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for i, op := range ops {
		b = append(b, byte(op.Kind))
		switch op.Kind {
		case fragment.OpInsertEdge, fragment.OpDeleteEdge:
			if op.U < 0 || op.V < 0 {
				return nil, fmt.Errorf("oplog: op %d: negative node ID", i)
			}
			b = binary.AppendUvarint(b, uint64(op.U))
			b = binary.AppendUvarint(b, uint64(op.V))
		case fragment.OpInsertNode:
			if len(op.Label) > maxLabel {
				return nil, fmt.Errorf("oplog: op %d: label of %d bytes exceeds the limit", i, len(op.Label))
			}
			if op.Frag < -1 || op.Frag >= math.MaxInt32 {
				return nil, fmt.Errorf("oplog: op %d: node placement %d out of range", i, op.Frag)
			}
			b = binary.AppendUvarint(b, uint64(op.Frag+1))
			b = codec.AppendBlob(b, op.Label)
		case fragment.OpDeleteNode:
			if op.U < 0 {
				return nil, fmt.Errorf("oplog: op %d: negative node ID", i)
			}
			b = binary.AppendUvarint(b, uint64(op.U))
		default:
			return nil, fmt.Errorf("oplog: op %d: unknown kind %q", i, byte(op.Kind))
		}
	}
	return b, nil
}

// ReadOps is the inverse of AppendOps. Every count and length is
// bounds-checked, so hostile input fails the reader, never panics or
// allocates implausibly; a failure sticks to r (codec.Reader).
func ReadOps(r *codec.Reader) []fragment.Op {
	n := r.Count(1) // each op is >= 1 byte
	if n > maxOps {
		r.Fail(fmt.Errorf("oplog: implausible op count %d", n))
		return nil
	}
	ops := make([]fragment.Op, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		op := fragment.Op{Kind: fragment.OpKind(r.U8())}
		switch op.Kind {
		case fragment.OpInsertEdge, fragment.OpDeleteEdge:
			op.U, op.V = graph.NodeID(r.Int31()), graph.NodeID(r.Int31())
		case fragment.OpInsertNode:
			op.Frag = int(r.Int31()) - 1
			label := r.Blob()
			if len(label) > maxLabel {
				r.Fail(fmt.Errorf("oplog: op %d: label of %d bytes exceeds the limit", i, len(label)))
			}
			op.Label = string(label)
		case fragment.OpDeleteNode:
			op.U = graph.NodeID(r.Int31())
		default:
			r.Fail(fmt.Errorf("oplog: op %d: unknown kind %q", i, byte(op.Kind)))
		}
		ops = append(ops, op)
	}
	return ops
}

// AppendRecord appends one sequenced batch — lsn uvarint | ops — the body
// of a log record and of each record in a sync replay frame.
func AppendRecord(b []byte, rec Record) ([]byte, error) {
	return AppendOps(binary.AppendUvarint(b, rec.LSN), rec.Ops)
}

// ReadRecord is the inverse of AppendRecord.
func ReadRecord(r *codec.Reader) Record {
	lsn := r.Uvarint()
	return Record{LSN: lsn, Ops: ReadOps(r)}
}
