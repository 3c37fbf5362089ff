package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddNode("n")
	}
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got |V|=%d |E|=%d, want 4/4", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(3, 3) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddNode("a")
	b.AddNode("b")
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edges not coalesced: |E|=%d", g.NumEdges())
	}
}

func TestBuilderRejectsBadEdge(t *testing.T) {
	b := NewBuilder(1)
	b.AddNode("a")
	b.AddEdge(0, 7)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoop(t *testing.T) {
	b := NewBuilder(1)
	b.AddNode("x")
	b.AddEdge(0, 0)
	g := b.MustBuild()
	if !g.HasEdge(0, 0) {
		t.Fatal("self loop lost")
	}
	if !g.Reachable(0, 0) {
		t.Fatal("node must reach itself")
	}
	if g.Dist(0, 0) != 0 {
		t.Fatal("dist(v,v) must be 0")
	}
}

func TestInNeighbors(t *testing.T) {
	g := diamond(t)
	in := g.In(3)
	if len(in) != 2 {
		t.Fatalf("in(3)=%v", in)
	}
	if g.InDegree(0) != 0 || g.OutDegree(0) != 2 {
		t.Fatal("degree wrong")
	}
}

func TestReachableAndDist(t *testing.T) {
	g := diamond(t)
	if !g.Reachable(0, 3) || g.Reachable(3, 0) {
		t.Fatal("reachability wrong")
	}
	if d := g.Dist(0, 3); d != 2 {
		t.Fatalf("dist(0,3)=%d want 2", d)
	}
	if d := g.Dist(3, 0); d != -1 {
		t.Fatalf("dist(3,0)=%d want -1", d)
	}
}

func TestDistancesFromPruned(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddNode("")
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g := b.MustBuild()
	d := g.DistancesFrom(0, 2)
	want := []int32{0, 1, 2, -1, -1}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("pruned dist[%d]=%d want %d", i, d[i], w)
		}
	}
}

func TestBFSDepths(t *testing.T) {
	g := diamond(t)
	depths := map[NodeID]int{}
	g.BFS(0, func(v NodeID, d int) bool {
		depths[v] = d
		return true
	})
	if depths[0] != 0 || depths[3] != 2 || depths[1] != 1 || depths[2] != 1 {
		t.Fatalf("BFS depths wrong: %v", depths)
	}
}

func TestDescendants(t *testing.T) {
	g := diamond(t)
	d := g.Descendants(1)
	if !d[1] || !d[3] || d[0] || d[2] {
		t.Fatalf("descendants wrong: %v", d)
	}
}

func TestReverse(t *testing.T) {
	g := diamond(t)
	r := g.Reverse()
	if !r.HasEdge(3, 1) || !r.HasEdge(1, 0) || r.HasEdge(0, 1) {
		t.Fatal("reverse edges wrong")
	}
	if r.NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed edge count")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond(t)
	sub, orig := g.InducedSubgraph([]NodeID{0, 1, 3})
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced: %v", sub)
	}
	if orig[0] != 0 || orig[2] != 3 {
		t.Fatalf("orig map wrong: %v", orig)
	}
}

func TestSCCOnCycle(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddNode("")
	}
	// 0 -> 1 -> 2 -> 0 cycle, plus chain 2 -> 3 -> 4.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("got %d SCCs, want 3 (comp=%v)", n, comp)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("cycle split across components")
	}
	if comp[3] == comp[0] || comp[4] == comp[3] {
		t.Fatal("chain merged into cycle")
	}
}

func TestCondensationTopologicalOrder(t *testing.T) {
	// Property: for every edge (u, v) across components, comp[u] < comp[v].
	check := func(seed uint64) bool {
		g := randomGraph(seed, 30, 90)
		comp, _ := g.SCC()
		ok := true
		g.Edges(func(u, v NodeID) bool {
			if comp[u] != comp[v] && comp[u] > comp[v] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a deterministic pseudo-random graph without importing
// internal/gen (which would create an import cycle in tests).
func randomGraph(seed uint64, n, m int) *Graph {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 27)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode("")
	}
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(next()%uint64(n)), NodeID(next()%uint64(n)))
	}
	return b.MustBuild()
}

func TestSCCMutualReachabilityProperty(t *testing.T) {
	// Property: comp[u] == comp[v] iff u and v reach each other.
	for seed := uint64(0); seed < 15; seed++ {
		g := randomGraph(seed, 12, 24)
		comp, _ := g.SCC()
		for u := NodeID(0); int(u) < g.NumNodes(); u++ {
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				same := comp[u] == comp[v]
				mutual := g.Reachable(u, v) && g.Reachable(v, u)
				if same != mutual {
					t.Fatalf("seed %d: comp equal=%v mutual=%v for (%d,%d)", seed, same, mutual, u, v)
				}
			}
		}
	}
}

func TestRoundTripIO(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if g2.Label(v) != g.Label(v) {
			t.Fatalf("label mismatch at %d", v)
		}
	}
	g.Edges(func(u, v NodeID) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost", u, v)
		}
		return true
	})
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "nodes x", "nodes 1\n0 a\nedges 1\n0", "nodes 1\n5 a\nedges 0"} {
		if _, err := Read(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestLabelsWithSpaces(t *testing.T) {
	b := NewBuilder(1)
	b.AddNode("database researcher")
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Label(0) != "database researcher" {
		t.Fatalf("label %q", g2.Label(0))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	if c.NumEdges() != g.NumEdges() || c.NumNodes() != g.NumNodes() {
		t.Fatal("clone differs")
	}
}

func TestDFSPostorderCoversAllNodes(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomGraph(seed, 25, 50)
		post := g.DFSPostorder()
		if len(post) != g.NumNodes() {
			t.Fatalf("postorder has %d entries, want %d", len(post), g.NumNodes())
		}
		seen := make([]bool, g.NumNodes())
		for _, v := range post {
			if seen[v] {
				t.Fatalf("node %d repeated", v)
			}
			seen[v] = true
		}
	}
}

func TestEncodedSizeMonotone(t *testing.T) {
	small := randomGraph(1, 10, 20)
	large := randomGraph(1, 100, 400)
	if EncodedSize(small) >= EncodedSize(large) {
		t.Fatal("EncodedSize should grow with the graph")
	}
}

func TestInsertDeleteEdge(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomGraph(seed, 20, 40)
		// Mirror the edge set in a map and replay a mutation sequence.
		mirror := map[[2]NodeID]bool{}
		g.Edges(func(u, v NodeID) bool {
			mirror[[2]NodeID{u, v}] = true
			return true
		})
		if seed%2 == 0 {
			g.In(0) // build the reverse adjacency early: it must stay in sync
		}
		state := seed + 99
		next := func() uint64 {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return z ^ (z >> 27)
		}
		for step := 0; step < 200; step++ {
			u := NodeID(next() % 20)
			v := NodeID(next() % 20)
			e := [2]NodeID{u, v}
			if next()%2 == 0 {
				if got, want := g.InsertEdge(u, v), !mirror[e]; got != want {
					t.Fatalf("seed %d step %d: InsertEdge(%d,%d)=%v want %v", seed, step, u, v, got, want)
				}
				mirror[e] = true
			} else {
				if got, want := g.DeleteEdge(u, v), mirror[e]; got != want {
					t.Fatalf("seed %d step %d: DeleteEdge(%d,%d)=%v want %v", seed, step, u, v, got, want)
				}
				delete(mirror, e)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.NumEdges() != len(mirror) {
			t.Fatalf("seed %d: %d edges, mirror has %d", seed, g.NumEdges(), len(mirror))
		}
		count := 0
		g.Edges(func(u, v NodeID) bool {
			if !mirror[[2]NodeID{u, v}] {
				t.Fatalf("seed %d: phantom edge (%d,%d)", seed, u, v)
			}
			count++
			return true
		})
		if count != len(mirror) {
			t.Fatalf("seed %d: iterated %d edges, mirror has %d", seed, count, len(mirror))
		}
		// The (incrementally maintained or fresh) reverse adjacency agrees.
		for v := NodeID(0); v < 20; v++ {
			for _, u := range g.In(v) {
				if !g.HasEdge(u, v) {
					t.Fatalf("seed %d: In(%d) lists %d but edge missing", seed, v, u)
				}
			}
			indeg := 0
			for e := range mirror {
				if e[1] == v {
					indeg++
				}
			}
			if indeg != g.InDegree(v) {
				t.Fatalf("seed %d: InDegree(%d)=%d want %d", seed, v, g.InDegree(v), indeg)
			}
		}
	}
}
