package oplog

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"distreach/internal/codec"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Snapshot is a checkpoint of the whole fragmentation state at an LSN: the
// graph, the node-to-fragment assignment and the deployment epoch. A
// snapshot plus the log records after its LSN reconstructs the deployment
// state exactly; the fingerprint (fragment.Fingerprint over graph +
// assignment) is verified on decode, so a truncated or bit-rotted snapshot
// fails loudly instead of seeding a silently diverged replica. Derived
// state — the per-fragment reachability indexes — is not part of it: a
// recovered replica rebuilds that from the state.
type Snapshot struct {
	LSN         uint64
	Epoch       uint64
	Fingerprint uint64
	Fr          *fragment.Fragmentation

	// enc caches the serialized form captured atomically with the identity
	// fields (TakeSnapshot); EncodeSnapshot returns it when present so a
	// snapshot of a live replica can never be re-serialized against a
	// graph that moved on since the LSN was recorded.
	enc []byte
}

// Snapshot envelope (internal/codec; a blob is a uvarint length and the
// bytes):
//
//	magic "DRSNAP" | version u8 | lsn uvarint | epoch uvarint |
//	fingerprint u64 | graph text blob (graph.Write) |
//	assignment text blob (fragment.Write) |
//	dlen uvarint | tombstoned node IDs, ascending, uvarint each
//
// The graph text codec does not record tombstones (slots freed by node
// deletion, whose IDs a later insert reuses), so the envelope carries them
// explicitly and the decoder re-deletes those slots before rebuilding the
// fragmentation — ID assignment stays deterministic across a snapshot
// round trip. Versions 1 and 2 also recorded the partitioner, and version
// 2 the built indexes; version 3 wrote every integer fixed-width. None is
// read any more: an older snapshot is rejected with its version.
const (
	snapMagic   = "DRSNAP"
	snapVersion = 4
)

// TakeSnapshot captures the replica state behind rep as a Snapshot whose
// serialized form is frozen together with its identity: the state is
// encoded, then the replica is re-checked — if an update or rebalance
// landed meanwhile (new LSN, epoch, or a swapped fragmentation) the
// attempt is thrown away and retried, so the recorded LSN and fingerprint
// always describe exactly the encoded bytes.
func TakeSnapshot(rep *fragment.Replica) (*Snapshot, error) {
	for attempt := 0; attempt < 8; attempt++ {
		fr, epoch, lsn := rep.State()
		snap := &Snapshot{LSN: lsn, Epoch: epoch, Fr: fr}
		enc, err := encodeSnapshotState(snap)
		if err != nil {
			return nil, err
		}
		snap.Fingerprint = fr.Fingerprint()
		if fr2, e2, l2 := rep.State(); l2 == lsn && e2 == epoch && fr2 == fr {
			snap.enc = finishSnapshotEnvelope(snap, enc)
			return snap, nil
		}
	}
	return nil, fmt.Errorf("oplog: replica too hot to snapshot (updates landed on every attempt)")
}

// EncodeSnapshot serializes snap, preferring the form frozen by
// TakeSnapshot; a snapshot assembled at rest (decoded, or built in tests)
// is serialized fresh under the fragmentation's read lock.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	if snap.enc != nil {
		return snap.enc, nil
	}
	enc, err := encodeSnapshotState(snap)
	if err != nil {
		return nil, err
	}
	if snap.Fingerprint == 0 {
		snap.Fingerprint = snap.Fr.Fingerprint()
	}
	return finishSnapshotEnvelope(snap, enc), nil
}

// snapshotState is the state portion of the envelope: graph text,
// assignment text and tombstone list, captured under one read lock.
type snapshotState struct {
	graph, assign []byte
	dead          []uint32
}

// encodeSnapshotState captures the fragmentation state under its read
// lock, so a concurrent update never tears it.
func encodeSnapshotState(snap *Snapshot) (*snapshotState, error) {
	var gbuf, abuf bytes.Buffer
	snap.Fr.RLock()
	g := snap.Fr.Graph()
	gerr := graph.Write(&gbuf, g)
	aerr := fragment.Write(&abuf, snap.Fr)
	var dead []uint32
	for v := 0; v < g.NumNodes(); v++ {
		if g.Deleted(graph.NodeID(v)) {
			dead = append(dead, uint32(v))
		}
	}
	snap.Fr.RUnlock()
	if gerr != nil {
		return nil, gerr
	}
	if aerr != nil {
		return nil, aerr
	}
	return &snapshotState{graph: gbuf.Bytes(), assign: abuf.Bytes(), dead: dead}, nil
}

// finishSnapshotEnvelope assembles the final envelope from the identity
// fields and a captured state.
func finishSnapshotEnvelope(snap *Snapshot, st *snapshotState) []byte {
	b := make([]byte, 0, len(snapMagic)+1+48+len(st.graph)+len(st.assign)+5*len(st.dead))
	b = append(b, snapMagic...)
	b = append(b, snapVersion)
	b = binary.AppendUvarint(b, snap.LSN)
	b = binary.AppendUvarint(b, snap.Epoch)
	b = codec.AppendU64(b, snap.Fingerprint)
	b = codec.AppendBlob(b, st.graph)
	b = codec.AppendBlob(b, st.assign)
	b = binary.AppendUvarint(b, uint64(len(st.dead)))
	for _, v := range st.dead {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// DecodeSnapshot parses and verifies a snapshot: the envelope is
// bounds-checked against hostile input, the fragmentation is rebuilt, and
// its fingerprint must equal the recorded one.
func DecodeSnapshot(p []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(p, []byte(snapMagic)) {
		return nil, fmt.Errorf("oplog: not a snapshot (bad magic)")
	}
	r := codec.NewReader(p[len(snapMagic):])
	if ver := r.U8(); r.Err() == nil && ver != snapVersion {
		return nil, fmt.Errorf("oplog: unsupported snapshot version %d (want %d)", ver, snapVersion)
	}
	snap := &Snapshot{LSN: r.Uvarint(), Epoch: r.Uvarint(), Fingerprint: r.U64()}
	gtext, atext := r.Blob(), r.Blob()
	dead := make([]graph.NodeID, r.Count(1))
	for i := range dead {
		dead[i] = graph.NodeID(r.Int31())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("oplog: snapshot: %w", err)
	}
	g, err := graph.Read(bytes.NewReader(gtext))
	if err != nil {
		return nil, fmt.Errorf("oplog: snapshot graph: %w", err)
	}
	// Re-tombstone in ascending ID order, so the free-slot list (which a
	// later insert consumes lowest-first) matches the snapshotted state.
	for _, v := range dead {
		if int(v) >= g.NumNodes() || !g.DeleteNode(v) {
			return nil, fmt.Errorf("oplog: snapshot tombstone %d invalid", v)
		}
	}
	fr, err := fragment.Read(bytes.NewReader(atext), g)
	if err != nil {
		return nil, fmt.Errorf("oplog: snapshot assignment: %w", err)
	}
	if fp := fr.Fingerprint(); fp != snap.Fingerprint {
		return nil, fmt.Errorf("oplog: snapshot fingerprint mismatch (recorded %x, rebuilt %x)", snap.Fingerprint, fp)
	}
	snap.Fr = fr
	return snap, nil
}
