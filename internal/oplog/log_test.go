package oplog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if name, seed := fragment.Describe(got.Fr.Partitioner()); name != "edgecut" || seed != 5 {
		t.Fatalf("partitioner did not survive: %q/%d", name, seed)
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
	// A snapshot recording a retired partitioner fails, naming the
	// accepted set.
	for _, name := range []string{"greedy", "hash"} {
		ob, err := EncodeSnapshot(&Snapshot{LSN: snap.LSN, Epoch: snap.Epoch, Partitioner: name, Fr: snap.Fr})
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeSnapshot(ob)
		if err == nil {
			t.Fatalf("snapshot recording partitioner %q decoded", name)
		}
		for _, want := range fragment.Names() {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("partitioner %q: error %q does not name %q", name, err, want)
			}
		}
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
