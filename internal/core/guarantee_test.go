package core

import (
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/rx"
)

// bridgeFragmentation builds two fragments joined by one cross edge, with
// `interior` label-L nodes hanging inside each fragment. |Vf| stays fixed
// while |G| grows with interior.
func bridgeFragmentation(t *testing.T, interior int, label string) (*fragment.Fragmentation, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(2 + 2*interior)
	s := b.AddNode(label)
	u := b.AddNode(label)
	b.AddEdge(s, u)
	assign := []int{0, 1}
	for i := 0; i < interior; i++ {
		v := b.AddNode(label)
		b.AddEdge(s, v)
		b.AddEdge(v, s)
		assign = append(assign, 0)
	}
	var last = u
	for i := 0; i < interior; i++ {
		v := b.AddNode(label)
		b.AddEdge(last, v)
		assign = append(assign, 1)
		last = v
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	return fr, s, last
}

// TestDistTrafficIndependentOfGraphSize pins guarantee (2) for disDist.
func TestDistTrafficIndependentOfGraphSize(t *testing.T) {
	frS, s1, t1 := bridgeFragmentation(t, 4, "")
	frL, s2, t2 := bridgeFragmentation(t, 400, "")
	cl := cluster.New(2, cluster.NetModel{})
	// Bound below the chain length so pruning keeps messages small and
	// equal: the cross structure is identical in both instances.
	small := DisDist(cl, frS, s1, t1, 3).Report
	large := DisDist(cl, frL, s2, t2, 3).Report
	if small.Bytes != large.Bytes {
		t.Fatalf("disDist traffic grew with |G|: %d -> %d bytes", small.Bytes, large.Bytes)
	}
}

// TestRPQTrafficIndependentOfGraphSize pins guarantee (2) for disRPQ: with
// a label that excludes the interior nodes from the query automaton, the
// reply depends only on the boundary.
func TestRPQTrafficIndependentOfGraphSize(t *testing.T) {
	frS, s1, t1 := bridgeFragmentation(t, 4, "Z")
	frL, s2, t2 := bridgeFragmentation(t, 400, "Z")
	cl := cluster.New(2, cluster.NetModel{})
	a := automaton.FromRegex(rx.MustParse("A*")) // never matches label Z
	small := DisRPQ(cl, frS, s1, t1, a).Report
	large := DisRPQ(cl, frL, s2, t2, a).Report
	if small.Bytes != large.Bytes {
		t.Fatalf("disRPQ traffic grew with |G|: %d -> %d bytes", small.Bytes, large.Bytes)
	}
}

// bfsAssign places nodes on k fragments in BFS discovery order, cut into
// k equal consecutive blocks: a locality-shaped fragmentation no shipped
// partitioner produces.
func bfsAssign(g *graph.Graph, k int) []int {
	n, placed := g.NumNodes(), 0
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for r := 0; r < n; r++ {
		if assign[r] >= 0 {
			continue
		}
		g.BFS(graph.NodeID(r), func(v graph.NodeID, _ int) bool {
			if assign[v] < 0 {
				assign[v] = placed * k / n
				placed++
			}
			return true
		})
	}
	return assign
}

// TestVisitGuaranteeUnderEveryPartitioner verifies that one-visit-per-site
// holds no matter how the graph is fragmented (the paper imposes no
// constraints on fragmentation): shipped partitioners and explicit
// round-robin and BFS-grown assignments alike.
func TestVisitGuaranteeUnderEveryPartitioner(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 300, Edges: 1200, Labels: gen.LabelAlphabet(3), LabelSkew: 1, Seed: 6})
	modK := make([]int, g.NumNodes())
	for v := range modK {
		modK[v] = v % 5
	}
	partitioners := map[string]func() (*fragment.Fragmentation, error){
		"random":     func() (*fragment.Fragmentation, error) { return fragment.Random(g, 5, 1) },
		"contiguous": func() (*fragment.Fragmentation, error) { return fragment.Contiguous(g, 5) },
		"edgecut":    func() (*fragment.Fragmentation, error) { return fragment.EdgeCut(g, 5, 1) },
		"v%k":        func() (*fragment.Fragmentation, error) { return fragment.Build(g, modK, 5) },
		"bfs":        func() (*fragment.Fragmentation, error) { return fragment.Build(g, bfsAssign(g, 5), 5) },
	}
	a := automaton.FromRegex(rx.MustParse("L0 (L1|L2)*"))
	for name, build := range partitioners {
		fr, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl := cluster.New(5, cluster.NetModel{})
		reports := []cluster.Report{
			DisReach(cl, fr, 0, 299, nil).Report,
			DisDist(cl, fr, 0, 299, 7).Report,
			DisRPQ(cl, fr, 0, 299, a).Report,
		}
		for i, rep := range reports {
			if rep.MaxVisits != 1 {
				t.Fatalf("%s algo %d: max visits %d", name, i, rep.MaxVisits)
			}
			if rep.TotalVisits != 5 {
				t.Fatalf("%s algo %d: total visits %d, want 5", name, i, rep.TotalVisits)
			}
		}
	}
}

// TestRPQWireBoundHolds checks the O(|R|²·|Vf|²) reply bound on random
// instances: the measured reply bytes never exceed the analytic bound.
func TestRPQWireBoundHolds(t *testing.T) {
	rng := gen.NewRNG(17)
	labels := []string{"A", "B", "C"}
	for trial := 0; trial < 60; trial++ {
		g, fr, s, tt := randomCase(rng, labels)
		a := automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(10), labels)
		nq := a.NumStates()
		for _, f := range fr.Fragments() {
			rv := LocalEvalRPQ(f, s, tt, a)
			boundary := f.NumVirtual() + len(f.InNodes())
			// Per entry at most 3 + (vars+1+7)/8 dense bytes; entries per
			// in-node at most nq; plus 4 bytes per in-node header.
			perEntry := 3 + (boundary*nq+1+7)/8
			bound := (len(f.InNodes()) + 1) * (4 + nq*perEntry)
			if got := RPQWireSize(f, rv, a); got > bound {
				t.Fatalf("trial %d: wire %d exceeds bound %d (|I|=%d |O|=%d nq=%d)",
					trial, got, bound, len(f.InNodes()), f.NumVirtual(), nq)
			}
		}
		_ = g
	}
}

// TestDisReachAliasCompression verifies the SCC-alias optimization kicks in
// on a fragment whose in-nodes share one big cycle.
func TestDisReachAliasCompression(t *testing.T) {
	// One ring per fragment plus cross edges between rings: all in-nodes of
	// a fragment share an SCC.
	b := graph.NewBuilder(40)
	assign := make([]int, 40)
	for i := 0; i < 40; i++ {
		b.AddNode("")
		assign[i] = i / 20
	}
	for f := 0; f < 2; f++ {
		base := f * 20
		for i := 0; i < 20; i++ {
			b.AddEdge(graph.NodeID(base+i), graph.NodeID(base+(i+1)%20))
		}
	}
	// Several cross edges each way.
	for i := 0; i < 6; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(20+i))
		b.AddEdge(graph.NodeID(20+10+i), graph.NodeID(10+i))
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := fr.Fragments()[0]
	rv := LocalEvalReach(f, graph.None, 39, &Options{})
	full, alias := 0, 0
	for _, eq := range boolEqs(rv) {
		if len(eq.vars) == 1 && !eq.truth {
			alias++
		} else {
			full++
		}
	}
	if alias == 0 {
		t.Fatalf("expected aliased equations on a ring fragment (full=%d alias=%d)", full, alias)
	}
	// And the answers stay exact.
	cl := cluster.New(2, cluster.NetModel{})
	for i := graph.NodeID(0); i < 40; i++ {
		for j := graph.NodeID(0); j < 40; j += 7 {
			if got, want := DisReach(cl, fr, i, j, nil).Answer, g.Reachable(i, j); got != want {
				t.Fatalf("(%d,%d): %v want %v", i, j, got, want)
			}
		}
	}
}
