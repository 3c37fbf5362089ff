package oplog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/reachindex"
)

// Snapshot is a checkpoint of the whole fragmentation state at an LSN: the
// graph, the node-to-fragment assignment, the deployment epoch, and the
// partitioner that produced the assignment. A snapshot plus the log
// records after its LSN reconstructs the deployment state exactly; the
// fingerprint (fragment.Fingerprint over graph + assignment) is verified
// on decode, so a truncated or bit-rotted snapshot fails loudly instead of
// seeding a silently diverged replica.
type Snapshot struct {
	LSN         uint64
	Epoch       uint64
	Fingerprint uint64
	Partitioner string // "" = none attached
	Seed        uint64
	Fr          *fragment.Fragmentation

	// IndexFrags counts the per-fragment reachability indexes the
	// snapshot carries (encode: captured; decode: adopted into Fr). Zero
	// when indexing is off, every fragment was mid-rebuild or overlaid at
	// capture time, or the decoder rejected the section as stale/corrupt.
	IndexFrags int

	// enc caches the serialized form captured atomically with the identity
	// fields (TakeSnapshot); EncodeSnapshot returns it when present so a
	// snapshot of a live replica can never be re-serialized against a
	// graph that moved on since the LSN was recorded.
	enc []byte
}

// Snapshot envelope (little-endian):
//
//	magic "DRSNAP" | version u8 | nlen u8 | partitioner name |
//	seed u64 | lsn u64 | epoch u64 | fingerprint u64 |
//	glen u32 | graph text (graph.Write) |
//	alen u32 | assignment text (fragment.Write) |
//	dlen u32 | tombstoned node IDs u32 each (ascending) |
//	ilen u32 | index section (version >= 2; ilen 0 = none)
//
// The graph text codec does not record tombstones (slots freed by node
// deletion, whose IDs a later insert reuses), so the envelope carries them
// explicitly and the decoder re-deletes those slots before rebuilding the
// fragmentation — ID assignment stays deterministic across a snapshot
// round trip.
//
// The index section (new in version 2) persists the built per-fragment
// reachability indexes so a recovered replica serves indexed answers on
// its first query round instead of rebuilding from scratch:
//
//	lsn u64 | fingerprint u64 | budget u64 | count u32 |
//	count × (fragID u32 | bloblen u32 | crc32c u32 | reachindex blob)
//
// The section is best-effort in both directions. Encode captures only
// fragments whose live index is fresh (not stale, not mid-rebuild) and
// whose storage is overlay-free — an overlay-free fragment's slot
// numbering is the canonical Build order, which is exactly what
// fragment.Read reproduces, so the persisted slot-speaking index stays
// valid after the round trip. Decode treats the whole section as
// advisory: an LSN/fingerprint mismatch (a stale index smuggled into a
// newer snapshot), a CRC failure, a malformed blob, or a slot-count
// mismatch drops the section — never the snapshot — and the replica
// falls back to the ordinary async rebuild. Wrong answers are impossible
// either way; only the warm-start is lost.
const (
	snapMagic   = "DRSNAP"
	snapVersion = 2
)

// snapVersionNoIndex is the pre-index envelope (no ilen field at the
// tail); the decoder still accepts it.
const snapVersionNoIndex = 1

// TakeSnapshot captures the replica state behind rep as a Snapshot whose
// serialized form is frozen together with its identity: the state is
// encoded, then the replica is re-checked — if an update or rebalance
// landed meanwhile (new LSN, epoch, or a swapped fragmentation) the
// attempt is thrown away and retried, so the recorded LSN and fingerprint
// always describe exactly the encoded bytes.
func TakeSnapshot(rep *fragment.Replica) (*Snapshot, error) {
	for attempt := 0; attempt < 8; attempt++ {
		fr, epoch, lsn := rep.State()
		name, seed := fragment.Describe(fr.Partitioner())
		snap := &Snapshot{LSN: lsn, Epoch: epoch, Partitioner: name, Seed: seed, Fr: fr}
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
// assignment text, tombstone list and persisted index blobs, captured
// under one read lock.
type snapshotState struct {
	graph, assign []byte
	dead          []uint32

	idxBudget int64
	idx       []idxSnapEntry
}

// idxSnapEntry is one fragment's serialized reachability index.
type idxSnapEntry struct {
	fragID uint32
	blob   []byte
}

// encodeSnapshotState captures the fragmentation state under its read
// lock, so a concurrent update never tears it.
func encodeSnapshotState(snap *Snapshot) (*snapshotState, error) {
	if len(snap.Partitioner) > 0xFF {
		return nil, fmt.Errorf("oplog: partitioner name of %d bytes out of range", len(snap.Partitioner))
	}
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
	st := &snapshotState{}
	if b := snap.Fr.ReachIndexBudget(); b > 0 {
		st.idxBudget = b
		for _, f := range snap.Fr.Fragments() {
			// Only a fresh index over overlay-free storage survives the
			// round trip: overlay-free means the live slot numbering is the
			// canonical Build order that fragment.Read reproduces on decode,
			// so the slot-speaking index blob still describes the rebuilt
			// fragment. Stale or mid-rebuild fragments are simply omitted —
			// the recovered replica backfills them asynchronously.
			if f.OverlayEntries() != 0 {
				continue
			}
			idx := f.ReachIndex()
			if idx == nil || idx.AnyStale() {
				continue
			}
			blob, err := idx.MarshalBinary()
			if err != nil {
				continue
			}
			st.idx = append(st.idx, idxSnapEntry{fragID: uint32(f.ID), blob: blob})
		}
	}
	snap.Fr.RUnlock()
	if gerr != nil {
		return nil, gerr
	}
	if aerr != nil {
		return nil, aerr
	}
	st.graph, st.assign, st.dead = gbuf.Bytes(), abuf.Bytes(), dead
	return st, nil
}

// finishSnapshotEnvelope assembles the final envelope from the identity
// fields and a captured state.
func finishSnapshotEnvelope(snap *Snapshot, st *snapshotState) []byte {
	b := make([]byte, 0, len(snapMagic)+2+len(snap.Partitioner)+36+len(st.graph)+len(st.assign)+4*len(st.dead)+4)
	b = append(b, snapMagic...)
	b = append(b, snapVersion, byte(len(snap.Partitioner)))
	b = append(b, snap.Partitioner...)
	b = binary.LittleEndian.AppendUint64(b, snap.Seed)
	b = binary.LittleEndian.AppendUint64(b, snap.LSN)
	b = binary.LittleEndian.AppendUint64(b, snap.Epoch)
	b = binary.LittleEndian.AppendUint64(b, snap.Fingerprint)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.graph)))
	b = append(b, st.graph...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.assign)))
	b = append(b, st.assign...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.dead)))
	for _, v := range st.dead {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = appendIndexSection(b, snap, st)
	return b
}

// appendIndexSection writes the ilen-prefixed index section, stamping it
// with the envelope's LSN and fingerprint so a decoder can tell whether
// the indexes describe the state it is restoring.
func appendIndexSection(b []byte, snap *Snapshot, st *snapshotState) []byte {
	snap.IndexFrags = len(st.idx)
	if len(st.idx) == 0 {
		return binary.LittleEndian.AppendUint32(b, 0)
	}
	ilen := 8 + 8 + 8 + 4
	for _, e := range st.idx {
		ilen += 4 + 4 + 4 + len(e.blob)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(ilen))
	b = binary.LittleEndian.AppendUint64(b, snap.LSN)
	b = binary.LittleEndian.AppendUint64(b, snap.Fingerprint)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.idxBudget))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.idx)))
	for _, e := range st.idx {
		b = binary.LittleEndian.AppendUint32(b, e.fragID)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.blob)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(e.blob, crcTable))
		b = append(b, e.blob...)
	}
	return b
}

// DecodeSnapshot parses and verifies a snapshot: the envelope is
// bounds-checked against hostile input, the fragmentation is rebuilt, its
// fingerprint must equal the recorded one, and the recorded partitioner is
// re-attached.
func DecodeSnapshot(p []byte) (*Snapshot, error) {
	r := NewCursor(p)
	magic, err := r.Bytes(uint32(len(snapMagic)))
	if err != nil || string(magic) != snapMagic {
		return nil, fmt.Errorf("oplog: not a snapshot (bad magic)")
	}
	ver, err := r.U8()
	if err != nil {
		return nil, err
	}
	if ver != snapVersion && ver != snapVersionNoIndex {
		return nil, fmt.Errorf("oplog: unsupported snapshot version %d", ver)
	}
	nlen, err := r.U8()
	if err != nil {
		return nil, err
	}
	name, err := r.Bytes(uint32(nlen))
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Partitioner: string(name)}
	if snap.Seed, err = r.U64(); err != nil {
		return nil, err
	}
	if snap.LSN, err = r.U64(); err != nil {
		return nil, err
	}
	if snap.Epoch, err = r.U64(); err != nil {
		return nil, err
	}
	if snap.Fingerprint, err = r.U64(); err != nil {
		return nil, err
	}
	glen, err := r.U32()
	if err != nil {
		return nil, err
	}
	gtext, err := r.Bytes(glen)
	if err != nil {
		return nil, err
	}
	alen, err := r.U32()
	if err != nil {
		return nil, err
	}
	atext, err := r.Bytes(alen)
	if err != nil {
		return nil, err
	}
	dlen, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint64(dlen)*4 > uint64(r.Remaining()) {
		return nil, fmt.Errorf("oplog: snapshot claims %d tombstones in %d bytes", dlen, r.Remaining())
	}
	dead := make([]uint32, 0, dlen)
	for i := 0; i < int(dlen); i++ {
		v, err := r.U32()
		if err != nil {
			return nil, err
		}
		dead = append(dead, v)
	}
	var isec []byte
	if ver >= snapVersion {
		ilen, err := r.U32()
		if err != nil {
			return nil, err
		}
		if isec, err = r.Bytes(ilen); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	g, err := graph.Read(bytes.NewReader(gtext))
	if err != nil {
		return nil, fmt.Errorf("oplog: snapshot graph: %w", err)
	}
	// Re-tombstone in ascending ID order, so the free-slot list (which a
	// later insert consumes lowest-first) matches the snapshotted state.
	for _, v := range dead {
		if int(v) >= g.NumNodes() || !g.DeleteNode(graph.NodeID(v)) {
			return nil, fmt.Errorf("oplog: snapshot tombstone %d invalid", v)
		}
	}
	fr, err := fragment.Read(bytes.NewReader(atext), g)
	if err != nil {
		return nil, fmt.Errorf("oplog: snapshot assignment: %w", err)
	}
	if snap.Partitioner != "" {
		part, err := fragment.ByName(snap.Partitioner, snap.Seed)
		if err != nil {
			return nil, fmt.Errorf("oplog: snapshot partitioner: %w", err)
		}
		fr.SetPartitioner(part)
	}
	if fp := fr.Fingerprint(); fp != snap.Fingerprint {
		return nil, fmt.Errorf("oplog: snapshot fingerprint mismatch (recorded %x, rebuilt %x)", snap.Fingerprint, fp)
	}
	snap.Fr = fr
	snap.IndexFrags = adoptIndexSection(fr, snap, isec)
	return snap, nil
}

// adoptIndexSection validates the persisted index section against the
// freshly rebuilt fragmentation and, when everything checks out, installs
// the indexes and records the budget so the replica serves indexed
// answers immediately. Any anomaly — the section stamped with a different
// LSN or fingerprint than the envelope (a stale index), a CRC or codec
// failure, an unknown fragment, a slot-count mismatch — abandons the
// whole section and returns 0: the snapshot itself is still good, and the
// replica rebuilds its indexes the ordinary asynchronous way. All-or-
// nothing adoption keeps the failure mode boring; partial adoption would
// work too but is harder to reason about in tests.
func adoptIndexSection(fr *fragment.Fragmentation, snap *Snapshot, isec []byte) int {
	if len(isec) == 0 {
		return 0
	}
	r := NewCursor(isec)
	lsn, err := r.U64()
	if err != nil || lsn != snap.LSN {
		return 0
	}
	fp, err := r.U64()
	if err != nil || fp != snap.Fingerprint {
		return 0
	}
	budget, err := r.U64()
	if err != nil || budget == 0 || budget > 1<<62 {
		return 0
	}
	count, err := r.U32()
	if err != nil {
		return 0
	}
	frags := fr.Fragments()
	type adopted struct {
		fragID int
		idx    *reachindex.Index
	}
	entries := make([]adopted, 0, count)
	for i := 0; i < int(count); i++ {
		fragID, err := r.U32()
		if err != nil {
			return 0
		}
		blen, err := r.U32()
		if err != nil {
			return 0
		}
		crc, err := r.U32()
		if err != nil {
			return 0
		}
		blob, err := r.Bytes(blen)
		if err != nil || crc32.Checksum(blob, crcTable) != crc {
			return 0
		}
		idx, err := reachindex.UnmarshalBinary(blob)
		if err != nil {
			return 0
		}
		var f *fragment.Fragment
		for _, cand := range frags {
			if cand.ID == int(fragID) {
				f = cand
				break
			}
		}
		if f == nil || idx.NumSlots() != f.NumTotal() {
			return 0
		}
		entries = append(entries, adopted{fragID: int(fragID), idx: idx})
	}
	if r.Done() != nil {
		return 0
	}
	fr.ConfigureReachIndex(int64(budget))
	for _, e := range entries {
		fr.AdoptReachIndex(e.fragID, e.idx)
	}
	return len(entries)
}
