package fragment

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distreach/internal/gen"
	"distreach/internal/graph"
)

// sameStructure compares a live-mutated fragmentation against one rebuilt
// from scratch over the same graph and assignment: every derived quantity
// the paper's guarantees depend on must agree.
func sameStructure(fr, scratch *Fragmentation) error {
	if fr.Vf() != scratch.Vf() {
		return fmt.Errorf("|Vf| drifted: live %d, scratch %d", fr.Vf(), scratch.Vf())
	}
	if fr.CrossEdges() != scratch.CrossEdges() {
		return fmt.Errorf("cross edges drifted: live %d, scratch %d", fr.CrossEdges(), scratch.CrossEdges())
	}
	for i, f := range fr.Fragments() {
		s := scratch.Fragments()[i]
		if f.NumLocal() != s.NumLocal() || f.NumVirtual() != s.NumVirtual() || f.NumEdges() != s.NumEdges() {
			return fmt.Errorf("fragment %d drifted: live |V|=%d |O|=%d |E|=%d, scratch %d/%d/%d",
				i, f.NumLocal(), f.NumVirtual(), f.NumEdges(), s.NumLocal(), s.NumVirtual(), s.NumEdges())
		}
		// In-node sets must match as global IDs (local indices may differ
		// after swap-removals).
		liveIn := make(map[graph.NodeID]bool)
		for _, l := range f.InNodes() {
			liveIn[f.Global(l)] = true
		}
		for _, l := range s.InNodes() {
			if !liveIn[s.Global(l)] {
				return fmt.Errorf("fragment %d: in-node %d missing live", i, s.Global(l))
			}
			delete(liveIn, s.Global(l))
		}
		if len(liveIn) != 0 {
			return fmt.Errorf("fragment %d: live has %d extra in-nodes", i, len(liveIn))
		}
	}
	return nil
}

// snapshotAssign captures the current node-to-fragment assignment so a
// from-scratch Build reproduces the live placement (tombstone entries are
// ignored by Build).
func snapshotAssign(fr *Fragmentation) []int {
	n := fr.Graph().NumNodes()
	assign := make([]int, n)
	for v := 0; v < n; v++ {
		if o := fr.Owner(graph.NodeID(v)); o >= 0 {
			assign[v] = o
		}
	}
	return assign
}

// TestNodeMutationCrossCheck is the randomized acceptance check for
// node-level mutations: 50 random fragmented graphs, each hit with a
// random mix of edge inserts/deletes, node inserts and node deletes
// (single ops and transactional batches). After every batch the live
// fragmentation must validate and agree structurally with a from-scratch
// rebuild over the same (mutated) graph and assignment.
func TestNodeMutationCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(417)
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(60)
		e := n + rng.Intn(3*n)
		seed := uint64(9000 + trial)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		k := 1 + rng.Intn(4)
		fr, err := Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			nn := graph.NodeID(g.NumNodes())
			pick := func() graph.NodeID { return graph.NodeID(rng.Intn(int(nn))) }
			batch := make([]Op, 1+rng.Intn(3))
			for i := range batch {
				switch rng.Intn(6) {
				case 0, 1:
					batch[i] = Op{Kind: OpInsertEdge, U: pick(), V: pick()}
				case 2, 3:
					batch[i] = Op{Kind: OpDeleteEdge, U: pick(), V: pick()}
				case 4:
					batch[i] = Op{Kind: OpInsertNode, Label: labels[rng.Intn(3)], Frag: -1}
				case 5:
					batch[i] = Op{Kind: OpDeleteNode, U: pick()}
				}
			}
			res, err := fr.Apply(batch)
			if err != nil {
				// The random batch referenced a tombstone or repeated a
				// delete: atomicity means nothing changed; verify and retry
				// with the next step.
				if verr := fr.Validate(); verr != nil {
					t.Fatalf("trial %d step %d: rejected batch left damage: %v (batch err: %v)", trial, step, verr, err)
				}
				continue
			}
			_ = res
			if err := fr.Validate(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			scratch, err := Build(g, snapshotAssign(fr), k)
			if err != nil {
				t.Fatalf("trial %d step %d: scratch rebuild: %v", trial, step, err)
			}
			if err := sameStructure(fr, scratch); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestApplyAtomicity: a batch with an invalid op must change nothing, even
// when its earlier ops were valid.
func TestApplyAtomicity(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 20, Edges: 60, Labels: []string{"A"}, Seed: 5})
	fr, err := Random(g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := fr.BalanceStats()
	edges := g.NumEdges()
	_, err = fr.Apply([]Op{
		{Kind: OpInsertEdge, U: 0, V: 7},                // valid
		{Kind: OpInsertEdge, U: 1, V: graph.NodeID(99)}, // out of range
	})
	if err == nil {
		t.Fatal("batch with an out-of-range endpoint must be rejected")
	}
	if g.NumEdges() != edges {
		t.Fatalf("rejected batch mutated the graph: %d edges, want %d", g.NumEdges(), edges)
	}
	if after := fr.BalanceStats(); after != before {
		t.Fatalf("rejected batch mutated the fragmentation: %v -> %v", before, after)
	}
	// A batch referencing a node deleted earlier in the same batch is
	// rejected up front.
	if _, err := fr.Apply([]Op{
		{Kind: OpDeleteNode, U: 3},
		{Kind: OpInsertEdge, U: 3, V: 4},
	}); err == nil {
		t.Fatal("batch referencing a node it deletes must be rejected")
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchUnionsDirty: one batch touching several fragments reports
// one deduplicated, sorted dirty set.
func TestApplyBatchUnionsDirty(t *testing.T) {
	// A path graph partitioned contiguously: cross edges are easy to aim.
	b := graph.NewBuilder(9)
	for i := 0; i < 9; i++ {
		b.AddNode("A")
	}
	g := b.MustBuild()
	fr, err := Contiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fr.Apply([]Op{
		{Kind: OpInsertEdge, U: 0, V: 1}, // internal to fragment 0
		{Kind: OpInsertEdge, U: 1, V: 3}, // cross 0 -> 1
		{Kind: OpInsertEdge, U: 4, V: 6}, // cross 1 -> 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed {
		t.Fatal("batch reported no change")
	}
	want := []int{0, 1, 2}
	if len(res.Dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", res.Dirty, want)
	}
	for i := range want {
		if res.Dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", res.Dirty, want)
		}
	}
}

// TestInsertNodePlacement: auto placement is balance-aware (least loaded)
// and deterministic; explicit placement is honored.
func TestInsertNodePlacement(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 9, Edges: 0, Labels: []string{"A"}, Seed: 1})
	// Skewed assignment: fragment 0 holds 7 nodes, fragment 1 holds 2.
	assign := []int{0, 0, 0, 0, 0, 0, 0, 1, 1}
	fr, err := Build(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	id, dirty, err := fr.InsertNode("B", -1)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Owner(id) != 1 {
		t.Fatalf("auto placement chose fragment %d, want least-loaded 1", fr.Owner(id))
	}
	if len(dirty) != 1 || dirty[0] != 1 {
		t.Fatalf("dirty = %v, want [1]", dirty)
	}
	id2, _, err := fr.InsertNode("C", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Owner(id2) != 0 {
		t.Fatalf("explicit placement landed on %d, want 0", fr.Owner(id2))
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaLSNOrder: broadcast delivery of one batch to sites sharing a
// replica applies once (node insertion is the op that makes this matter),
// the total order is enforced — a gap marks the replica behind, a foreign
// writer colliding on an applied LSN fails loudly — and log replay
// (nonce 0) deduplicates against live application.
func TestReplicaLSNOrder(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 20, Labels: []string{"A"}, Seed: 2})
	fr, err := Random(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(fr)
	ops := []Op{{Kind: OpInsertNode, Label: "B", Frag: -1}}
	r1, adv, err := rep.ApplyLSN(1, 7, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !adv {
		t.Fatal("first delivery did not advance the replica")
	}
	r2, adv, err := rep.ApplyLSN(1, 7, ops) // duplicate delivery, same writer
	if err != nil {
		t.Fatal(err)
	}
	if adv {
		t.Fatal("duplicate delivery advanced the replica")
	}
	if len(r1.NewIDs) != 1 || len(r2.NewIDs) != 1 || r1.NewIDs[0] != r2.NewIDs[0] {
		t.Fatalf("duplicate delivery diverged: %v vs %v", r1.NewIDs, r2.NewIDs)
	}
	cur, _ := rep.Current()
	if cur.Graph().NumLive() != 11 {
		t.Fatalf("node inserted %d times, want once", cur.Graph().NumLive()-10)
	}
	// Log replay (nonce 0) of an applied LSN replays the recorded result.
	if r3, _, err := rep.ApplyLSN(1, 0, ops); err != nil || r3.NewIDs[0] != r1.NewIDs[0] {
		t.Fatalf("replay of applied LSN: res %v err %v", r3.NewIDs, err)
	}
	// A different writer colliding on the applied LSN fails loudly.
	if _, _, err := rep.ApplyLSN(1, 99, ops); err == nil {
		t.Fatal("foreign-writer collision on an applied LSN must error")
	}
	// The next LSN applies; a gap marks the replica behind.
	if _, _, err := rep.ApplyLSN(2, 8, ops); err != nil {
		t.Fatal(err)
	}
	if cur.Graph().NumLive() != 12 {
		t.Fatalf("next LSN did not apply: %d live nodes", cur.Graph().NumLive())
	}
	if _, _, err := rep.ApplyLSN(5, 9, ops); !errors.Is(err, ErrReplicaBehind) {
		t.Fatalf("gap returned %v, want ErrReplicaBehind", err)
	}
	if rep.LSN() != 2 {
		t.Fatalf("replica LSN = %d, want 2", rep.LSN())
	}
	// A deterministically rejected batch still advances the order (the slot
	// becomes a recorded no-op) and replays its rejection.
	bad := []Op{{Kind: OpInsertEdge, U: 0, V: 9999}}
	if _, adv, err := rep.ApplyLSN(3, 10, bad); err == nil || !adv {
		t.Fatalf("rejected batch: adv=%v err=%v, want advance with error", adv, err)
	}
	if _, adv, err := rep.ApplyLSN(3, 10, bad); err == nil || adv {
		t.Fatalf("replayed rejection: adv=%v err=%v, want recorded error without advance", adv, err)
	}
	if rep.LSN() != 3 {
		t.Fatalf("replica LSN = %d, want 3 after rejected slot", rep.LSN())
	}
}

// TestLSNStampedUnderReadLock: the LSN a reader sees under RLock is the LSN
// of the state it reads. With the read lock held a sequenced batch blocks
// and the visible LSN stays the pre-batch one — where Replica.State, read
// before the lock, would let the batch slip in between unstamped; after
// release it is the batch's. A rejected batch takes its slot too, and a
// rebalance and a snapshot install carry the LSN over.
func TestLSNStampedUnderReadLock(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 20, Labels: []string{"A"}, Seed: 2})
	fr, err := Random(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplicaAt(fr, 0, 4)
	if fr.LSN() != 4 {
		t.Fatalf("NewReplicaAt left the fragmentation at LSN %d, want 4", fr.LSN())
	}
	fr.RLock()
	applied := make(chan error, 1)
	go func() {
		_, _, err := rep.ApplyLSN(5, 1, []Op{{Kind: OpInsertNode, Label: "B", Frag: -1}})
		applied <- err
	}()
	select {
	case err := <-applied:
		t.Fatalf("ApplyLSN returned (%v) while a reader held the lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got, live := fr.LSN(), fr.Graph().NumLive(); got != 4 || live != 10 {
		t.Fatalf("under the read lock: LSN %d with %d live nodes, want the pre-batch 4 with 10", got, live)
	}
	fr.RUnlock()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	fr.RLock()
	if got, live := fr.LSN(), fr.Graph().NumLive(); got != 5 || live != 11 {
		t.Fatalf("after the batch: LSN %d with %d live nodes, want 5 with 11", got, live)
	}
	fr.RUnlock()
	if _, adv, err := rep.ApplyLSN(6, 2, []Op{{Kind: OpInsertEdge, U: 0, V: 9999}}); err == nil || !adv {
		t.Fatalf("rejected batch: adv=%v err=%v, want advance with error", adv, err)
	}
	if fr.LSN() != 6 {
		t.Fatalf("rejected batch left the fragmentation at LSN %d, want 6", fr.LSN())
	}
	if _, err := fr.Apply([]Op{{Kind: OpInsertNode, Label: "B", Frag: -1}}); err != nil || fr.LSN() != 6 {
		t.Fatalf("unsequenced apply: err %v, LSN %d, want 6 untouched", err, fr.LSN())
	}
	if did, err := rep.Rebalance(1, RandomPartitioner{Seed: 9}); err != nil || !did {
		t.Fatalf("rebalance: did=%v err=%v", did, err)
	}
	if next, _ := rep.Current(); next == fr || next.LSN() != 6 {
		t.Fatalf("rebalanced fragmentation at LSN %d, want 6 carried over", next.LSN())
	}
	snap, err := Random(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Install(snap, 2, 9) || snap.LSN() != 9 {
		t.Fatalf("installed snapshot at LSN %d, want 9", snap.LSN())
	}
}

// TestReplicaRebalance: the epoch gate makes rebalance idempotent, the
// graph is shared across epochs, and the rebuilt fragmentation reflects
// accumulated churn.
func TestReplicaRebalance(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 160, Labels: []string{"A", "B"}, Seed: 3})
	fr, err := Random(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(fr)
	if _, _, err := rep.ApplyLSN(0, 0, []Op{{Kind: OpInsertEdge, U: 0, V: 39}}); err != nil {
		t.Fatal(err)
	}
	applied, err := rep.Rebalance(1, EdgeCutPartitioner{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("first rebalance did not apply")
	}
	applied, err = rep.Rebalance(1, EdgeCutPartitioner{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("duplicate rebalance applied twice")
	}
	cur, epoch := rep.Current()
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	if cur == fr {
		t.Fatal("rebalance did not swap the fragmentation")
	}
	if cur.Graph() != fr.Graph() {
		t.Fatal("rebalance must keep the same graph object")
	}
	if !cur.Graph().HasEdge(0, 39) {
		t.Fatal("pre-rebalance churn lost")
	}
	if err := cur.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeCutPartitioner: on a community graph the balance-aware edge-cut
// strategy must beat random partitioning on both |Vf| and cross edges
// while staying balanced.
func TestEdgeCutPartitioner(t *testing.T) {
	g := gen.Communities(gen.CommunitiesConfig{Communities: 4, Size: 100, InDegree: 4, Seed: 9})
	rand, err := Random(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := EdgeCut(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.Validate(); err != nil {
		t.Fatal(err)
	}
	if cut.CrossEdges() >= rand.CrossEdges() {
		t.Fatalf("edgecut cross edges %d not below random %d", cut.CrossEdges(), rand.CrossEdges())
	}
	if cut.Vf() >= rand.Vf() {
		t.Fatalf("edgecut |Vf| %d not below random %d", cut.Vf(), rand.Vf())
	}
	bs := cut.BalanceStats()
	if bs.Skew() > 1.6 {
		t.Fatalf("edgecut skew %.2f exceeds the capacity bound", bs.Skew())
	}
	// Determinism: same seed, same assignment (replicas rely on this).
	again, err := EdgeCut(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if cut.Owner(graph.NodeID(v)) != again.Owner(graph.NodeID(v)) {
			t.Fatalf("edgecut is not deterministic at node %d", v)
		}
	}
}
