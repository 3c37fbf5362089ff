package netsite

import (
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestNodeOpsWireCrossCheck drives random mixed mutation batches — edge
// inserts/deletes, node inserts/deletes — over the wire against 50 random
// deployments. After every batch, the wire result must equal what an
// independent replica computes for the same ops, the shared fragmentation
// must validate, and answers must match the BFS oracle on the mirror.
func TestNodeOpsWireCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(501)
	for trial := 0; trial < 50; trial++ {
		n := 12 + rng.Intn(50)
		e := n + rng.Intn(2*n)
		seed := uint64(6000 + trial)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		k := 1 + rng.Intn(4)
		fr, err := fragment.Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Independent replica: the separate-process form of a site, fed the
		// same batches locally. Placement must agree because both replicas
		// run the same deterministic partitioner over the same state.
		mirror := g.Clone()
		assign := make([]int, n)
		for v := range assign {
			assign[v] = fr.Owner(graph.NodeID(v))
		}
		rep, err := fragment.Build(mirror, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		sites, addrs, err := ServeFragmentation(fr)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Dial(addrs, 2*time.Second)
		if err != nil {
			for _, s := range sites {
				s.Close()
			}
			t.Fatal(err)
		}

		for step := 0; step < 6; step++ {
			nn := mirror.NumNodes()
			pick := func() graph.NodeID { return graph.NodeID(rng.Intn(nn)) }
			ops := make([]Op, 1+rng.Intn(3))
			for i := range ops {
				switch rng.Intn(6) {
				case 0, 1:
					ops[i] = Op{Kind: OpInsertEdge, U: pick(), V: pick()}
				case 2:
					ops[i] = Op{Kind: OpDeleteEdge, U: pick(), V: pick()}
				case 3, 4:
					ops[i] = Op{Kind: OpInsertNode, Label: labels[rng.Intn(3)], Frag: -1}
				case 5:
					ops[i] = Op{Kind: OpDeleteNode, U: pick()}
				}
			}
			res, st, err := co.Apply(ops)
			repRes, repErr := rep.Apply(ops)
			if (err == nil) != (repErr == nil) {
				t.Fatalf("trial %d step %d: wire err=%v, replica err=%v", trial, step, err, repErr)
			}
			if err != nil {
				continue // both rejected the batch: atomicity on both sides
			}
			if st.FramesSent != int64(k) || st.FramesReceived != int64(k) {
				t.Fatalf("trial %d step %d: update round cost %d/%d frames, want %d each",
					trial, step, st.FramesSent, st.FramesReceived, k)
			}
			if res.Changed != repRes.Changed {
				t.Fatalf("trial %d step %d: wire changed=%v replica=%v", trial, step, res.Changed, repRes.Changed)
			}
			if len(res.Dirty) != len(repRes.Dirty) {
				t.Fatalf("trial %d step %d: wire dirty %v, replica %v", trial, step, res.Dirty, repRes.Dirty)
			}
			for i := range res.Dirty {
				if res.Dirty[i] != repRes.Dirty[i] {
					t.Fatalf("trial %d step %d: wire dirty %v, replica %v", trial, step, res.Dirty, repRes.Dirty)
				}
			}
			if len(res.NewIDs) != len(repRes.NewIDs) {
				t.Fatalf("trial %d step %d: wire new IDs %v, replica %v", trial, step, res.NewIDs, repRes.NewIDs)
			}
			for i := range res.NewIDs {
				if res.NewIDs[i] != repRes.NewIDs[i] {
					t.Fatalf("trial %d step %d: wire new IDs %v, replica %v", trial, step, res.NewIDs, repRes.NewIDs)
				}
			}
			if err := fr.Validate(); err != nil {
				t.Fatalf("trial %d step %d: shared fragmentation invalid: %v", trial, step, err)
			}
			if err := rep.Validate(); err != nil {
				t.Fatalf("trial %d step %d: replica invalid: %v", trial, step, err)
			}
			// Balance stats ride the reply and must match the replica's view.
			if want := rep.BalanceStats(); res.Stats.MaxSize != want.MaxSize || res.Stats.Vf != want.Vf ||
				res.Stats.CrossEdges != want.CrossEdges || res.Stats.TotalSize != want.TotalSize {
				t.Fatalf("trial %d step %d: wire stats %+v, replica %+v", trial, step, res.Stats, want)
			}
			for q := 0; q < 4; q++ {
				s := graph.NodeID(rng.Intn(mirror.NumNodes()))
				tt := graph.NodeID(rng.Intn(mirror.NumNodes()))
				if mirror.Deleted(s) || mirror.Deleted(tt) {
					continue
				}
				got, _, err := co.Reach(s, tt)
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if want := mirror.Reachable(s, tt); got != want {
					t.Fatalf("trial %d step %d: qr(%d,%d) wire=%v BFS oracle=%v",
						trial, step, s, tt, got, want)
				}
			}
		}
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// TestApplyTransactional: one multi-op frame applies atomically — a batch
// whose last op is invalid changes nothing on any site.
func TestApplyTransactional(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 30, Edges: 90, Labels: []string{"A"}, Seed: 503})
	fr, err := fragment.Random(g, 3, 503)
	if err != nil {
		t.Fatal(err)
	}
	co, cleanup := deployFr(t, fr)
	defer cleanup()

	edges := g.NumEdges()
	_, _, err = co.Apply([]Op{
		{Kind: OpInsertEdge, U: 0, V: 29},
		{Kind: OpInsertEdge, U: 1, V: 999}, // out of range: whole batch rejected
	})
	if err == nil {
		t.Fatal("invalid batch must be rejected")
	}
	if g.NumEdges() != edges {
		t.Fatalf("rejected batch mutated the deployment: %d edges, want %d", g.NumEdges(), edges)
	}
	// A batch the codec cannot carry (a negative node ID) is refused before
	// any frame goes out, and hands its LSN on: the batches after it apply.
	lsn := co.Sequencer().LSN()
	if _, st, err := co.Apply([]Op{{Kind: OpDeleteNode, U: -1}}); err == nil || st.FramesSent != 0 {
		t.Fatalf("unencodable batch: %d frames sent, err %v; want none and an error", st.FramesSent, err)
	}
	if got := co.Sequencer().LSN(); got != lsn {
		t.Fatalf("unencodable batch moved the LSN %d -> %d", lsn, got)
	}
	// A valid batch inserting and wiring a node applies as one unit.
	res, _, err := co.Apply([]Op{{Kind: OpInsertNode, Label: "B", Frag: -1}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.NewIDs[0]
	res2, _, err := co.Apply([]Op{
		{Kind: OpInsertEdge, U: 0, V: id},
		{Kind: OpInsertEdge, U: id, V: 29},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Changed {
		t.Fatal("wiring batch reported no change")
	}
	got, _, err := co.Reach(0, 29)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("path through the inserted node not found")
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteNodeWire: deleting a cut node over the wire severs
// reachability and cascades its incident edges everywhere.
func TestDeleteNodeWire(t *testing.T) {
	// 0 -> 1 -> 2: node 1 is the cut.
	b := graph.NewBuilder(3)
	b.AddNode("A")
	b.AddNode("B")
	b.AddNode("C")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	fr, err := fragment.Contiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	co, cleanup := deployFr(t, fr)
	defer cleanup()

	if got, _, err := co.Reach(0, 2); err != nil || !got {
		t.Fatalf("precondition qr(0,2): %v %v", got, err)
	}
	res, _, err := co.DeleteNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed {
		t.Fatal("DeleteNode reported no change")
	}
	if got, _, err := co.Reach(0, 2); err != nil || got {
		t.Fatalf("qr(0,2) after cut deletion = %v (err %v), want false", got, err)
	}
	// Idempotent on re-delivery semantics: a second delete is a no-op.
	res2, _, err := co.DeleteNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Changed {
		t.Fatal("double delete reported a change")
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}
