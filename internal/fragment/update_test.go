package fragment

import (
	"sort"
	"testing"

	"distreach/internal/gen"
	"distreach/internal/graph"
)

// edgeList snapshots the graph's edges for random deletion picks.
func edgeList(g *graph.Graph) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	g.Edges(func(u, v graph.NodeID) bool {
		out = append(out, [2]graph.NodeID{u, v})
		return true
	})
	return out
}

// inNodeSet collects a fragment's in-nodes as global IDs.
func inNodeSet(f *Fragment) map[graph.NodeID]bool {
	out := map[graph.NodeID]bool{}
	for _, l := range f.InNodes() {
		out[f.Global(l)] = true
	}
	return out
}

// virtualSet collects a fragment's virtual nodes as global IDs.
func virtualSet(f *Fragment) map[graph.NodeID]bool {
	out := map[graph.NodeID]bool{}
	for _, l := range f.VirtualNodes() {
		out[f.Global(l)] = true
	}
	return out
}

// TestIncrementalMatchesRebuild replays random insert/delete sequences and
// checks, after every single update, that the incrementally maintained
// fragmentation is structurally identical to one rebuilt from scratch on
// the mutated graph: Validate passes, and cross-edge counts, |Vf|, and
// every fragment's edge/virtual/in-node bookkeeping agree.
func TestIncrementalMatchesRebuild(t *testing.T) {
	rng := gen.NewRNG(17)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		m := n + rng.Intn(3*n)
		k := 1 + rng.Intn(5)
		g := testGraph(uint64(100+trial), n, m)
		fr, err := Random(g, k, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, n)
		for v := range assign {
			assign[v] = fr.Owner(graph.NodeID(v))
		}
		for step := 0; step < 12; step++ {
			var u, v graph.NodeID
			var dirty []int
			var changed bool
			del := rng.Intn(2) == 0 && g.NumEdges() > 0
			if del {
				e := edgeList(g)[rng.Intn(g.NumEdges())]
				u, v = e[0], e[1]
				dirty, changed, err = fr.DeleteEdge(u, v)
			} else {
				u = graph.NodeID(rng.Intn(n))
				v = graph.NodeID(rng.Intn(n))
				existed := g.HasEdge(u, v)
				dirty, changed, err = fr.InsertEdge(u, v)
				if changed == existed {
					t.Fatalf("trial %d step %d: insert(%d,%d) changed=%v but existed=%v",
						trial, step, u, v, changed, existed)
				}
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if changed {
				if len(dirty) == 0 {
					t.Fatalf("trial %d step %d: changed update dirtied nothing", trial, step)
				}
				wantOwner := assign[u]
				if i := sort.SearchInts(dirty, wantOwner); i >= len(dirty) || dirty[i] != wantOwner {
					t.Fatalf("trial %d step %d: dirty %v misses source owner %d", trial, step, dirty, wantOwner)
				}
			} else if len(dirty) != 0 {
				t.Fatalf("trial %d step %d: no-op update dirtied %v", trial, step, dirty)
			}
			if err := fr.Validate(); err != nil {
				t.Fatalf("trial %d step %d (del=%v %d->%d): %v", trial, step, del, u, v, err)
			}
			// Full structural comparison against a from-scratch Build on
			// the mutated graph with the same assignment.
			want, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			if fr.CrossEdges() != want.CrossEdges() || fr.Vf() != want.Vf() {
				t.Fatalf("trial %d step %d: |Ef|=%d |Vf|=%d, rebuild has %d/%d",
					trial, step, fr.CrossEdges(), fr.Vf(), want.CrossEdges(), want.Vf())
			}
			for i, f := range fr.Fragments() {
				wf := want.Fragments()[i]
				if f.NumLocal() != wf.NumLocal() || f.NumEdges() != wf.NumEdges() ||
					f.NumVirtual() != wf.NumVirtual() || len(f.InNodes()) != len(wf.InNodes()) {
					t.Fatalf("trial %d step %d fragment %d: local/edges/virtual/in = %d/%d/%d/%d, rebuild %d/%d/%d/%d",
						trial, step, i, f.NumLocal(), f.NumEdges(), f.NumVirtual(), len(f.InNodes()),
						wf.NumLocal(), wf.NumEdges(), wf.NumVirtual(), len(wf.InNodes()))
				}
				for v := range inNodeSet(wf) {
					if !inNodeSet(f)[v] {
						t.Fatalf("trial %d step %d fragment %d: in-node %d missing", trial, step, i, v)
					}
				}
				for v := range virtualSet(wf) {
					if !virtualSet(f)[v] {
						t.Fatalf("trial %d step %d fragment %d: virtual node %d missing", trial, step, i, v)
					}
				}
				// The cached SCC decomposition reflects the mutated structure.
				if want, _ := localGraph(f).SCC(); !sameComponents(f.LocalSCC(), want) {
					t.Fatalf("trial %d step %d fragment %d: LocalSCC went stale", trial, step, i)
				}
			}
		}
	}
}

// TestUpdateRejectsBadEndpoints checks the range validation.
func TestUpdateRejectsBadEndpoints(t *testing.T) {
	g := testGraph(3, 10, 20)
	fr, err := Random(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]graph.NodeID{{-1, 0}, {0, 10}, {10, 10}} {
		if _, _, err := fr.InsertEdge(e[0], e[1]); err == nil {
			t.Fatalf("InsertEdge(%d,%d) accepted", e[0], e[1])
		}
		if _, _, err := fr.DeleteEdge(e[0], e[1]); err == nil {
			t.Fatalf("DeleteEdge(%d,%d) accepted", e[0], e[1])
		}
	}
}
