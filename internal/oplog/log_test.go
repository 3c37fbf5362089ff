package oplog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

func rec(lsn uint64, u, v graph.NodeID) Record {
	return Record{LSN: lsn, Ops: []fragment.Op{{Kind: fragment.OpInsertEdge, U: u, V: v}}}
}

// TestLogAppendReadRecover: records round-trip through the segmented log,
// survive a close/reopen, and the recovered last LSN matches.
func TestLogAppendReadRecover(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := l.Append(rec(i, graph.NodeID(i), graph.NodeID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order and gapped appends are refused.
	if err := l.Append(rec(20, 0, 1)); err == nil {
		t.Fatal("duplicate LSN append must fail")
	}
	if err := l.Append(rec(25, 0, 1)); err == nil {
		t.Fatal("gapped LSN append must fail")
	}
	recs, ok, err := l.ReadFrom(7)
	if err != nil || !ok {
		t.Fatalf("ReadFrom(7): ok=%v err=%v", ok, err)
	}
	if len(recs) != 14 || recs[0].LSN != 7 || recs[13].LSN != 20 {
		t.Fatalf("ReadFrom(7) returned %d records [%d..%d]", len(recs), recs[0].LSN, recs[len(recs)-1].LSN)
	}
	if recs[0].Ops[0].U != 7 {
		t.Fatalf("record 7 payload drifted: %+v", recs[0].Ops[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 20 {
		t.Fatalf("recovered LSN %d, want 20", l2.LastLSN())
	}
	if err := l2.Append(rec(21, 1, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestLogRotationAndTruncate: tiny segments force rotation; truncation
// after a snapshot drops whole covered segments but never the active one,
// and ReadFrom reports the missing prefix as unavailable.
func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Fsync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 40; i++ {
		if err := l.Append(rec(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	segs, bytes := l.Stats()
	if segs < 3 || bytes == 0 {
		t.Fatalf("expected several segments, got %d (%d bytes)", segs, bytes)
	}
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	after, _ := l.Stats()
	if after >= segs {
		t.Fatalf("truncation kept all %d segments", after)
	}
	if _, ok, err := l.ReadFrom(2); ok || err != nil {
		t.Fatalf("ReadFrom(2) after truncation: ok=%v err=%v, want unavailable", ok, err)
	}
	// The suffix past the truncation point must still be readable.
	recs, ok, err := l.ReadFrom(35)
	if err != nil || !ok || len(recs) != 6 || recs[0].LSN != 35 {
		t.Fatalf("ReadFrom(35): ok=%v err=%v len=%d", ok, err, len(recs))
	}
	if l.LastLSN() != 40 {
		t.Fatalf("LastLSN %d after truncation, want 40", l.LastLSN())
	}
}

// TestLogTornTailTruncated: a crash mid-append leaves a torn record at the
// tail; reopening drops it and the next append overwrites the garbage.
func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := l.Append(rec(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(names) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(names))
	}
	f, err := os.OpenFile(names[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 0, 0, 0, 9, 9}) // torn record: size prefix, partial body
	f.Close()

	l2, err := OpenLog(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 5 {
		t.Fatalf("recovered LSN %d past a torn tail, want 5", l2.LastLSN())
	}
	if err := l2.Append(rec(6, 0, 1)); err != nil {
		t.Fatal(err)
	}
	recs, ok, err := l2.ReadFrom(1)
	if err != nil || !ok || len(recs) != 6 {
		t.Fatalf("after torn-tail recovery: ok=%v err=%v len=%d", ok, err, len(recs))
	}
}

// TestSequencerResumesAfterRestart is the regression for the forked-order
// bug: the old scheme re-randomized its sequence base on every restart, so
// replicas could not recognize re-sent batches. A durable sequencer must
// resume exactly where the previous incarnation stopped — even when a
// snapshot has truncated every record away, because the segment header
// pins the LSN.
func TestSequencerResumesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	seq := NewDurableSequencer(st)
	for i := 0; i < 5; i++ {
		if _, err := seq.Submit([]fragment.Op{{Kind: fragment.OpInsertEdge, U: 0, V: 1}}, func(uint64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if seq.LSN() != 5 {
		t.Fatalf("sequencer at %d, want 5", seq.LSN())
	}
	st.Close()

	// Restart: the order resumes at 6, not at a fresh base.
	st2, err := OpenStore(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	seq2 := NewDurableSequencer(st2)
	if seq2.LSN() != 5 {
		t.Fatalf("restarted sequencer at %d, want 5", seq2.LSN())
	}
	var got uint64
	if _, err := seq2.Submit([]fragment.Op{{Kind: fragment.OpInsertEdge, U: 1, V: 2}}, func(lsn uint64) error {
		got = lsn
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("restarted sequencer assigned %d, want 6", got)
	}
	st2.Close()

	// Snapshot-truncated store: every record gone, the LSN survives in the
	// segment header (and the snapshot name).
	g := gen.Uniform(gen.Config{Nodes: 8, Edges: 16, Labels: []string{"A"}, Seed: 4})
	fr, err := fragment.Random(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := TakeSnapshot(fragment.NewReplicaAt(fr, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	st3.Close()
	st4, err := OpenStore(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st4.Close()
	if seq4 := NewDurableSequencer(st4); seq4.LSN() != 6 {
		t.Fatalf("sequencer after snapshot truncation at %d, want 6", seq4.LSN())
	}
}

// TestSequencerReclaimsUndeliveredLSN: an in-memory sequencer rolls back
// an LSN whose batch reached no replica (nothing holds it, so keeping the
// number would wedge every later update behind an unfillable hole); a
// durable sequencer keeps it, because the write-ahead log re-delivers.
func TestSequencerReclaimsUndeliveredLSN(t *testing.T) {
	ops := []fragment.Op{{Kind: fragment.OpInsertEdge, U: 0, V: 1}}
	undelivered := func(uint64) error {
		return fmt.Errorf("%w: all sites down", ErrNotDelivered)
	}
	mem := NewSequencer(0)
	if _, err := mem.Submit(ops, undelivered); err == nil {
		t.Fatal("undelivered submit must surface its error")
	}
	if mem.LSN() != 0 {
		t.Fatalf("in-memory sequencer kept undelivered LSN: at %d, want 0", mem.LSN())
	}
	var got uint64
	if _, err := mem.Submit(ops, func(lsn uint64) error { got = lsn; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("after reclaim the next batch got LSN %d, want 1", got)
	}
	// A delivered-but-failed round (some replica applied) keeps the LSN.
	if _, err := mem.Submit(ops, func(uint64) error { return fmt.Errorf("epoch split") }); err == nil {
		t.Fatal("failed submit must surface its error")
	}
	if mem.LSN() != 2 {
		t.Fatalf("partially delivered LSN was reclaimed: at %d, want 2", mem.LSN())
	}

	st, err := OpenStore(t.TempDir(), LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dur := NewDurableSequencer(st)
	if _, err := dur.Submit(ops, undelivered); err == nil {
		t.Fatal("undelivered submit must surface its error")
	}
	if dur.LSN() != 1 {
		t.Fatalf("durable sequencer rolled back a logged LSN: at %d, want 1", dur.LSN())
	}
	if recs, ok, err := st.Log().ReadFrom(1); err != nil || !ok || len(recs) != 1 {
		t.Fatalf("the logged record must survive for re-delivery: ok=%v err=%v len=%d", ok, err, len(recs))
	}
}

// TestSnapshotRoundTrip: a snapshot of a churned deployment — including
// node deletions, whose tombstones the graph text codec cannot carry —
// decodes to an identical fingerprint, and mutilated bytes are rejected.
func TestSnapshotRoundTrip(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 30, Edges: 120, Labels: []string{"A", "B"}, Seed: 5})
	fr, err := fragment.Partition(g, fragment.EdgeCutPartitioner{Seed: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := fragment.NewReplica(fr)
	ops := []fragment.Op{
		{Kind: fragment.OpDeleteNode, U: 3},
		{Kind: fragment.OpDeleteNode, U: 17},
		{Kind: fragment.OpInsertNode, Label: "C", Frag: -1},
		{Kind: fragment.OpInsertEdge, U: 0, V: 29},
	}
	if _, _, err := rep.ApplyLSN(1, 9, ops); err != nil {
		t.Fatal(err)
	}
	snap, err := TakeSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN != 1 {
		t.Fatalf("snapshot LSN %d, want 1", snap.LSN)
	}
	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != snap.Fr.Fingerprint() || got.Fr.Fingerprint() != got.Fingerprint {
		t.Fatal("snapshot fingerprint drifted through the round trip")
	}
	// Versions 1 and 2 carried the recorded partitioner (nlen u8, name,
	// seed u64) after the version byte, and version 2 an index section
	// (ilen u32, 0 = none) at the tail. Both are rejected, however
	// well-formed: assemble them by hand from the decoded state.
	legacy := func(ver byte) []byte {
		var gb, ab bytes.Buffer
		cg := got.Fr.Graph()
		if err := graph.Write(&gb, cg); err != nil {
			t.Fatal(err)
		}
		if err := fragment.Write(&ab, got.Fr); err != nil {
			t.Fatal(err)
		}
		var dead []uint32
		for v := 0; v < cg.NumNodes(); v++ {
			if cg.Deleted(graph.NodeID(v)) {
				dead = append(dead, uint32(v))
			}
		}
		out := append([]byte(snapMagic), ver, 0)
		for _, u := range []uint64{0, got.LSN, got.Epoch, got.Fingerprint} {
			out = binary.LittleEndian.AppendUint64(out, u)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(gb.Len()))
		out = append(out, gb.Bytes()...)
		out = binary.LittleEndian.AppendUint32(out, uint32(ab.Len()))
		out = append(out, ab.Bytes()...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(dead)))
		for _, v := range dead {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		if ver == 2 {
			out = binary.LittleEndian.AppendUint32(out, 0)
		}
		return out
	}
	for _, ver := range []byte{1, 2} {
		_, err := DecodeSnapshot(legacy(ver))
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Fatalf("version %d envelope: err = %v, want unsupported snapshot version", ver, err)
		}
	}
	// Tombstone determinism: the same insert on both sides reuses the same
	// freed ID.
	origID, _, err := snap.Fr.InsertNode("X", -1)
	if err != nil {
		t.Fatal(err)
	}
	gotID, _, err := got.Fr.InsertNode("X", -1)
	if err != nil {
		t.Fatal(err)
	}
	if origID != gotID {
		t.Fatalf("post-snapshot insert diverged: %d vs %d", origID, gotID)
	}
	// A flipped byte in the graph section must fail the fingerprint check.
	bad := append([]byte(nil), b...)
	bad[len(bad)/2] ^= 1
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("mutilated snapshot decoded cleanly")
	}
}

// TestStoreRecover: snapshot + log suffix reconstructs the replica state;
// a fresh store recovers the base state unchanged.
func TestStoreRecover(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 20, Edges: 60, Labels: []string{"A"}, Seed: 6})
	fr, err := fragment.Random(g, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror what a durable site does: apply + append, checkpoint midway.
	live := fragment.NewReplica(fr)
	for i := uint64(1); i <= 10; i++ {
		ops := []fragment.Op{{Kind: fragment.OpInsertEdge, U: graph.NodeID(i), V: graph.NodeID(19 - i)}}
		if _, _, err := live.ApplyLSN(i, 1, ops); err != nil {
			t.Fatal(err)
		}
		if err := st.Log().Append(Record{LSN: i, Ops: ops}); err != nil {
			t.Fatal(err)
		}
		if i == 6 {
			snap, err := TakeSnapshot(live)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()

	st2, err := OpenStore(dir, LogOptions{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// The base files are stale (pre-churn); recovery must not need them
	// beyond the snapshot.
	gBase := gen.Uniform(gen.Config{Nodes: 20, Edges: 60, Labels: []string{"A"}, Seed: 6})
	frBase, err := fragment.Random(gBase, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(st2, frBase)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, lsn := rep.State()
	if lsn != 10 {
		t.Fatalf("recovered LSN %d, want 10", lsn)
	}
	liveFr, _, _ := live.State()
	if cur.Fingerprint() != liveFr.Fingerprint() {
		t.Fatal("recovered state fingerprint differs from the live replica")
	}
}

// TestSnapshotRecoverWarm is the restart acceptance check: a site
// recovered from a store whose donor ran with reach indexes comes back at
// the snapshot's LSN with no index (snapshots carry state only); enabling
// indexes rebuilds them from the recovered state, the first round is
// served from them, and nothing disagrees with direct evaluation.
func TestSnapshotRecoverWarm(t *testing.T) {
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
	cur, _ := rep2.Current()
	if lsn := rep2.LSN(); lsn != snap.LSN {
		t.Fatalf("recovered at LSN %d, want %d", lsn, snap.LSN)
	}
	if cur == fr {
		t.Fatal("recovery returned the donor state, not the snapshot")
	}
	if cur.Fingerprint() != fr.Fingerprint() {
		t.Fatal("recovered state fingerprint differs from the donor")
	}
	if stx := cur.ReachIndexStats(); stx.Enabled || stx.Fragments != 0 {
		t.Fatalf("recovered state carries an index: %+v", stx)
	}
	cur.EnableReachIndex(1 << 20)
	cur.WaitReachIndexes()
	if stx := cur.ReachIndexStats(); stx.Fragments != fr.Card() {
		t.Fatalf("post-recovery rebuild indexed %d fragments, want %d", stx.Fragments, fr.Card())
	}
	cg := cur.Graph()
	rng := gen.NewRNG(72)
	for q := 0; q < 200; q++ {
		s, tt := graph.NodeID(rng.Intn(cg.NumNodes())), graph.NodeID(rng.Intn(cg.NumNodes()))
		var partials []*core.Rows
		for _, f := range cur.Fragments() {
			partials = append(partials, core.LocalEvalReach(f, s, tt, nil))
		}
		if ans, want := core.SolveReach(partials, s), cg.Reachable(s, tt); ans != want {
			t.Fatalf("qr(%d,%d) = %v after recovery, BFS says %v", s, tt, ans, want)
		}
	}
	if stx := cur.ReachIndexStats(); stx.Hits == 0 {
		t.Fatalf("the rebuilt indexes served no probe on the first round: %+v", stx)
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
