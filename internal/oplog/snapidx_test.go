package oplog

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// indexedDeployment builds a partitioned, indexed, LSN-advanced replica
// whose snapshot qualifies for the v2 index section on every fragment.
func indexedDeployment(t *testing.T) (*fragment.Replica, *fragment.Fragmentation) {
	t.Helper()
	g := gen.Uniform(gen.Config{Nodes: 120, Edges: 420, Labels: []string{"A"}, Seed: 71})
	fr, err := fragment.Partition(g, fragment.EdgeCutPartitioner{Seed: 71}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := fragment.NewReplica(fr)
	if _, _, err := rep.ApplyLSN(1, 0, []fragment.Op{{Kind: fragment.OpInsertEdge, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	fr.Compact()
	fr.EnableReachIndex(1 << 20)
	fr.WaitReachIndexes()
	return rep, fr
}

// TestSnapshotIndexRoundTrip: a v2 snapshot carries one index blob per
// clean fragment, and the decoded replica serves them — same budget,
// nothing stale, zero rebuilds needed.
func TestSnapshotIndexRoundTrip(t *testing.T) {
	rep, fr := indexedDeployment(t)
	snap, err := TakeSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	if snap.IndexFrags != fr.Card() {
		t.Fatalf("snapshot captured %d indexes, want %d", snap.IndexFrags, fr.Card())
	}
	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.IndexFrags != fr.Card() {
		t.Fatalf("decode adopted %d indexes, want %d", got.IndexFrags, fr.Card())
	}
	if got.Fr.ReachIndexBudget() != 1<<20 {
		t.Fatalf("adopted budget %d, want %d", got.Fr.ReachIndexBudget(), 1<<20)
	}
	got.Fr.RLock()
	for _, f := range got.Fr.Fragments() {
		idx := f.ReachIndex()
		if idx == nil || idx.AnyStale() {
			t.Fatalf("fragment %d: adopted index nil or stale", f.ID)
		}
	}
	got.Fr.RUnlock()
	if st := got.Fr.ReachIndexStats(); st.Rebuilds != 0 {
		t.Fatalf("adoption triggered %d rebuilds, want 0", st.Rebuilds)
	}
	// Dirty fragments are omitted, not snapshotted stale: after an
	// uncompacted mutation only clean fragments make it into the section.
	if _, _, err := rep.ApplyLSN(2, 0, []fragment.Op{{Kind: fragment.OpInsertEdge, U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	snap2, err := TakeSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.IndexFrags >= fr.Card() {
		t.Fatalf("dirty deployment still captured %d of %d indexes", snap2.IndexFrags, fr.Card())
	}
}

// sectionOffset walks the envelope prefix exactly as the decoder does and
// returns the byte offset of the index section payload.
func sectionOffset(t *testing.T, b []byte) (start, ilen int) {
	t.Helper()
	r := NewCursor(b)
	r.Bytes(uint32(len(snapMagic)))
	r.U8()
	nlen, _ := r.U8()
	r.Bytes(uint32(nlen))
	r.U64()
	r.U64()
	r.U64()
	r.U64()
	glen, _ := r.U32()
	r.Bytes(glen)
	alen, _ := r.U32()
	r.Bytes(alen)
	dlen, _ := r.U32()
	for i := 0; i < int(dlen); i++ {
		r.U32()
	}
	il, err := r.U32()
	if err != nil {
		t.Fatalf("envelope walk: %v", err)
	}
	return len(b) - r.Remaining(), int(il)
}

// TestSnapshotIndexSectionRejected: every way an index section can be
// wrong — stale LSN, foreign fingerprint, zero or absurd budget, wrong
// count, corrupted blob — must drop the section, keep the snapshot, and
// leave the replica on the ordinary rebuild path with correct answers.
func TestSnapshotIndexSectionRejected(t *testing.T) {
	rep, fr := indexedDeployment(t)
	snap, err := TakeSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	start, ilen := sectionOffset(t, b)
	if ilen == 0 {
		t.Fatal("no index section to corrupt")
	}
	cases := []struct {
		name   string
		offset int // relative to section start; -1 = last byte of envelope
		xor    byte
	}{
		{"stale LSN", 0, 0xFF},
		{"foreign fingerprint", 8, 0xFF},
		{"absurd budget", 16 + 7, 0x7F}, // top byte of the u64 budget
		{"wrong count", 24, 0x7F},
		{"corrupted blob", -1, 0xFF},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), b...)
		if tc.offset < 0 {
			mut[len(mut)-1] ^= tc.xor
		} else {
			mut[start+tc.offset] ^= tc.xor
		}
		got, err := DecodeSnapshot(mut)
		if err != nil {
			t.Fatalf("%s: corruption sank the whole snapshot: %v", tc.name, err)
		}
		if got.IndexFrags != 0 {
			t.Fatalf("%s: adopted %d indexes from a bad section", tc.name, got.IndexFrags)
		}
		if got.Fr.Fingerprint() != fr.Fingerprint() {
			t.Fatalf("%s: fragmentation state damaged", tc.name)
		}
		if got.Fr.ReachIndexBudget() != 0 {
			t.Fatalf("%s: budget configured from a rejected section", tc.name)
		}
		got.Fr.RLock()
		for _, f := range got.Fr.Fragments() {
			if f.ReachIndex() != nil {
				t.Fatalf("%s: fragment %d kept an index from a rejected section", tc.name, f.ID)
			}
		}
		got.Fr.RUnlock()
		// Clean fallback: enabling indexes on the recovered state rebuilds
		// from scratch without complaint.
		got.Fr.EnableReachIndex(1 << 20)
		got.Fr.WaitReachIndexes()
		if st := got.Fr.ReachIndexStats(); st.Fragments != fr.Card() {
			t.Fatalf("%s: fallback rebuild indexed %d fragments, want %d", tc.name, st.Fragments, fr.Card())
		}
	}
	// A zeroed budget field (not a flipped bit) must also drop the section.
	mut := append([]byte(nil), b...)
	for i := 0; i < 8; i++ {
		mut[start+16+i] = 0
	}
	got, err := DecodeSnapshot(mut)
	if err != nil || got.IndexFrags != 0 {
		t.Fatalf("zero budget: err=%v adopted=%d", err, got.IndexFrags)
	}
}

// TestSnapshotIndexPolicyByteAbandoned: snapshots written before the
// budget policy was removed carried a policy byte in the index section and
// in every index blob. Loading one (here with policy 1, the retired
// hit-guided policy) abandons the section like any other anomaly; the
// replica rebuilds cold and answers correctly.
func TestSnapshotIndexPolicyByteAbandoned(t *testing.T) {
	rep, fr := indexedDeployment(t)
	snap, err := TakeSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	start, ilen := sectionOffset(t, b)
	// splice inserts a policy byte at offset at and grows the section's
	// length prefix to match.
	splice := func(at int) []byte {
		out := append([]byte(nil), b[:at]...)
		out = append(out, 1)
		out = append(out, b[at:]...)
		binary.LittleEndian.PutUint32(out[start-4:], uint32(ilen+1))
		return out
	}
	// Section layout: lsn, fingerprint, budget (8 bytes each), then where
	// the policy byte sat, then count and the first entry's fragID, length,
	// CRC and blob ("RIX?" magic, n, nc, then where its policy byte sat).
	const entry = 24 + 4
	blobAt := start + entry + 12
	oldBlob := splice(blobAt + 12)
	copy(oldBlob[blobAt:], "RIX2")
	blen := binary.LittleEndian.Uint32(b[start+entry+4:]) + 1
	binary.LittleEndian.PutUint32(oldBlob[start+entry+4:], blen)
	binary.LittleEndian.PutUint32(oldBlob[start+entry+8:], crc32.Checksum(oldBlob[blobAt:blobAt+int(blen)], crcTable))

	for name, mut := range map[string][]byte{"section policy byte": splice(start + 24), "blob policy byte": oldBlob} {
		got, err := DecodeSnapshot(mut)
		if err != nil {
			t.Fatalf("%s: the snapshot itself must load: %v", name, err)
		}
		if got.IndexFrags != 0 || got.Fr.ReachIndexBudget() != 0 {
			t.Fatalf("%s: adopted %d indexes (budget %d) from a policy-era section", name, got.IndexFrags, got.Fr.ReachIndexBudget())
		}
		got.Fr.EnableReachIndex(1 << 20)
		got.Fr.WaitReachIndexes()
		if st := got.Fr.ReachIndexStats(); st.Fragments != fr.Card() {
			t.Fatalf("%s: cold rebuild indexed %d fragments, want %d", name, st.Fragments, fr.Card())
		}
		g := got.Fr.Graph()
		rng := gen.NewRNG(72)
		for q := 0; q < 200; q++ {
			s, tt := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			var partials []*core.ReachPartial
			for _, f := range got.Fr.Fragments() {
				partials = append(partials, core.LocalEvalReach(f, s, tt, nil))
			}
			if ans, want := core.SolveReach(partials, s), g.Reachable(s, tt); ans != want {
				t.Fatalf("%s: qr(%d,%d) = %v after the cold rebuild, BFS says %v", name, s, tt, ans, want)
			}
		}
		if st := got.Fr.ReachIndexStats(); st.Hits == 0 {
			t.Fatalf("%s: the rebuilt indexes served no probe: %+v", name, st)
		}
	}
}

// TestSnapshotRecoverWarm is the restart acceptance check: a site
// recovered from a store whose snapshot carries the index section serves
// indexed answers on its very first round — no rebuild has run, the hit
// counters move, and nothing disagrees with direct evaluation.
func TestSnapshotRecoverWarm(t *testing.T) {
	rep, fr := indexedDeployment(t)
	snap, err := TakeSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir(), LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	rep2, err := Recover(st, fr)
	if err != nil {
		t.Fatal(err)
	}
	fr2, _ := rep2.Current()
	if lsn := rep2.LSN(); lsn != snap.LSN {
		t.Fatalf("recovered at LSN %d, want %d", lsn, snap.LSN)
	}
	if fr2 == fr {
		t.Fatal("recovery returned the donor state, not the snapshot")
	}
	stx := fr2.ReachIndexStats()
	if !stx.Enabled || stx.Fragments != fr.Card() || stx.Rebuilds != 0 {
		t.Fatalf("recovered index state: %+v", stx)
	}
	// First round: exercise every fragment's source equations directly.
	fr2.RLock()
	for _, f := range fr2.Fragments() {
		idx := f.ReachIndex()
		for _, s := range f.InNodes() {
			if _, _, ok := idx.EquationGlobal(s, -1, false); ok {
				break
			}
		}
	}
	fr2.RUnlock()
	stx = fr2.ReachIndexStats()
	if stx.Hits == 0 {
		t.Fatalf("no index hits on the first post-recovery round: %+v", stx)
	}
	if stx.Rebuilds != 0 {
		t.Fatalf("a rebuild ran before the first round: %+v", stx)
	}
}

// TestGroupCommitCoalesces: concurrent durable submits under fsync=always
// must (a) all land, in dense LSN order, (b) each be durable before its
// Submit returns, and (c) share fsyncs — strictly fewer syncs than
// submits once writers pile up behind a slow flush.
func TestGroupCommitCoalesces(t *testing.T) {
	st, err := OpenStore(t.TempDir(), LogOptions{Fsync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A slow flush guarantees pile-up: while one writer is inside fsync,
	// the rest append and must be covered by a later (shared) flush.
	st.Log().syncHook = func() { time.Sleep(500 * time.Microsecond) }
	seq := NewDurableSequencer(st)

	const writers, perWriter = 8, 25
	var mu sync.Mutex
	var delivered []uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := seq.Submit(
					[]fragment.Op{{Kind: fragment.OpInsertEdge, U: 0, V: 1}},
					func(lsn uint64) error {
						mu.Lock()
						delivered = append(delivered, lsn)
						mu.Unlock()
						// The record must be durable before delivery.
						if d := st.Log().durableSeq.Load(); d < lsn {
							t.Errorf("LSN %d delivered with durableSeq %d", lsn, d)
						}
						return nil
					})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const total = writers * perWriter
	if len(delivered) != total {
		t.Fatalf("delivered %d records, want %d", len(delivered), total)
	}
	// The turnstile delivers in LSN order: the recorded sequence must be
	// exactly 1..total as appended to the shared slice.
	for i, lsn := range delivered {
		if lsn != uint64(i+1) {
			t.Fatalf("delivery %d carried LSN %d — out of order", i, lsn)
		}
	}
	recs, ok, err := st.Log().ReadFrom(1)
	if err != nil || !ok || len(recs) != total {
		t.Fatalf("log readback: ok=%v err=%v len=%d want %d", ok, err, len(recs), total)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("log record %d has LSN %d", i, rec.LSN)
		}
	}
	syncs := st.Log().SyncCount()
	if syncs == 0 || syncs >= total {
		t.Fatalf("%d fsyncs for %d submits — no coalescing", syncs, total)
	}
	t.Logf("group commit: %d submits, %d fsyncs", total, syncs)
}
