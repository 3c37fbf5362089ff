package core

import (
	"sync"
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/rx"
)

// ringAcrossFragments builds a directed cycle whose nodes alternate between
// k fragments — the worst case for recursive Boolean equations: every node
// is both an in-node and the original of a virtual node, and the equation
// system is one big cycle.
func ringAcrossFragments(t *testing.T, n, k int, labels []string) (*graph.Graph, *fragment.Fragmentation) {
	t.Helper()
	rng := gen.NewRNG(uint64(n * k))
	b := graph.NewBuilder(n)
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		l := ""
		if len(labels) > 0 {
			l = labels[rng.Intn(len(labels))]
		}
		b.AddNode(l)
		assign[i] = i % k
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	return g, fr
}

func TestCycleSpanningAllFragments(t *testing.T) {
	g, fr := ringAcrossFragments(t, 12, 4, nil)
	cl := cluster.New(4, cluster.NetModel{})
	// On a cycle every node reaches every node; distances are (j-i) mod n.
	for i := graph.NodeID(0); i < 12; i++ {
		for j := graph.NodeID(0); j < 12; j++ {
			if !DisReach(cl, fr, i, j).Answer {
				t.Fatalf("cycle: %d should reach %d", i, j)
			}
			want := (int(j) - int(i) + 12) % 12
			res := DisDist(cl, fr, i, j, 12)
			if int(res.Distance) != want {
				t.Fatalf("cycle dist(%d,%d) = %d, want %d", i, j, res.Distance, want)
			}
		}
	}
	_ = g
}

func TestRegularQueryOnCrossFragmentCycle(t *testing.T) {
	// Alternating labels around a ring: A B A B ... — the query (A B)+
	// from an A-node's predecessor wraps around fragments repeatedly.
	b := graph.NewBuilder(8)
	assign := make([]int, 8)
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			b.AddNode("A")
		} else {
			b.AddNode("B")
		}
		assign[i] = i % 3
	}
	for i := 0; i < 8; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%8))
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(3, cluster.NetModel{})
	for _, c := range []struct {
		expr string
		s, t graph.NodeID
		want bool
	}{
		{"(A B)*", 7, 4, false}, // 7 -> 0(A) 1(B) 2(A) 3(B) -> 4: interior A B A B ✓... wait
		{"A B A B", 7, 4, true}, // exact interior word from 7 to 4
		{"(B A)*", 0, 5, true},  // 0 -> 1(B) 2(A) 3(B) 4(A) -> 5
		{"B+", 0, 2, false},     // interior is node 1 (B)? 0->1->2 interior = {1} = B ✓
	} {
		a := automaton.FromRegex(rx.MustParse(c.expr))
		want := automaton.Eval(g, c.s, c.t, a)
		got := DisRPQ(cl, fr, c.s, c.t, a).Answer
		if got != want {
			t.Fatalf("%s from %d to %d: disRPQ=%v oracle=%v", c.expr, c.s, c.t, got, want)
		}
	}
	// Wrap-around: going all the way around the ring more than once is
	// allowed (paths need not be simple).
	a := automaton.FromRegex(rx.MustParse("(B A)* B (A B)* "))
	if got, want := DisRPQ(cl, fr, 0, 0, a).Answer, automaton.Eval(g, 0, 0, a); got != want {
		t.Fatalf("wrap-around: disRPQ=%v oracle=%v", got, want)
	}
}

func TestEndpointsOnBoundary(t *testing.T) {
	// s and t chosen as in-nodes / virtual-node originals.
	g, fr := ringAcrossFragments(t, 9, 3, nil)
	cl := cluster.New(3, cluster.NetModel{})
	// Every node in this ring is a boundary node by construction.
	for _, f := range fr.Fragments() {
		if len(f.InNodes()) != f.NumLocal() {
			t.Fatalf("expected all nodes to be in-nodes, fragment %d has %d/%d",
				f.ID, len(f.InNodes()), f.NumLocal())
		}
	}
	if !DisReach(cl, fr, 0, 8).Answer {
		t.Fatal("boundary endpoints failed")
	}
	if d := DisDist(cl, fr, 0, 8, 9); d.Distance != 8 {
		t.Fatalf("boundary dist = %d, want 8", d.Distance)
	}
	_ = g
}

func TestSingleNodeAndTinyGraphs(t *testing.T) {
	b := graph.NewBuilder(1)
	b.AddNode("X")
	g := b.MustBuild()
	fr, err := fragment.Build(g, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(1, cluster.NetModel{})
	if !DisReach(cl, fr, 0, 0).Answer {
		t.Fatal("self reachability")
	}
	if res := DisDist(cl, fr, 0, 0, 0); !res.Answer || res.Distance != 0 {
		t.Fatal("self distance")
	}
	// s == t regular reachability: ε membership decides.
	if !DisRPQ(cl, fr, 0, 0, automaton.FromRegex(rx.MustParse("X*"))).Answer {
		t.Fatal("nullable self query")
	}
	if DisRPQ(cl, fr, 0, 0, automaton.FromRegex(rx.MustParse("X+"))).Answer {
		t.Fatal("non-nullable self query on an acyclic single node")
	}
}

func TestSelfLoopRegularSelfQuery(t *testing.T) {
	// With a self-loop, qrr(v, v, X+) holds via the non-empty cycle.
	b := graph.NewBuilder(1)
	b.AddNode("X")
	b.AddEdge(0, 0)
	g := b.MustBuild()
	fr, err := fragment.Build(g, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(1, cluster.NetModel{})
	a := automaton.FromRegex(rx.MustParse("X+"))
	if got, want := DisRPQ(cl, fr, 0, 0, a).Answer, automaton.Eval(g, 0, 0, a); got != want {
		t.Fatalf("self loop X+: disRPQ=%v oracle=%v", got, want)
	}
}

func TestEmptyFragmentsTolerated(t *testing.T) {
	// More fragments than nodes: some sites hold nothing and must still
	// answer (with empty rvsets).
	g := gen.Uniform(gen.Config{Nodes: 5, Edges: 10, Seed: 3})
	fr, err := fragment.Random(g, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(9, cluster.NetModel{})
	for i := graph.NodeID(0); i < 5; i++ {
		for j := graph.NodeID(0); j < 5; j++ {
			if got, want := DisReach(cl, fr, i, j).Answer, g.Reachable(i, j); got != want {
				t.Fatalf("(%d,%d): %v want %v", i, j, got, want)
			}
		}
	}
}

func TestConcurrentQueriesShareFragmentation(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 500, Edges: 2000, Labels: gen.LabelAlphabet(3), LabelSkew: 1, Seed: 4})
	fr, err := fragment.Random(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(4, cluster.NetModel{})
	a := automaton.FromRegex(rx.MustParse("L0 (L1|L2)*"))
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := gen.NewRNG(seed)
			for q := 0; q < 20; q++ {
				s := graph.NodeID(rng.Intn(500))
				tt := graph.NodeID(rng.Intn(500))
				if DisReach(cl, fr, s, tt).Answer != g.Reachable(s, tt) {
					errs <- "reach mismatch under concurrency"
					return
				}
				if DisRPQ(cl, fr, s, tt, a).Answer != automaton.Eval(g, s, tt, a) {
					errs <- "rpq mismatch under concurrency"
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestDistBoundEdges(t *testing.T) {
	// dist exactly equals the bound; bound 0 with s != t; negative bound.
	g := gen.Chain([]string{"A"}, 6)
	fr, err := fragment.Contiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(3, cluster.NetModel{})
	if res := DisDist(cl, fr, 0, 5, 5); !res.Answer || res.Distance != 5 {
		t.Fatalf("exact bound: %+v", res)
	}
	if res := DisDist(cl, fr, 0, 5, 4); res.Answer {
		t.Fatal("bound one short must fail")
	}
	if res := DisDist(cl, fr, 0, 1, 0); res.Answer {
		t.Fatal("bound 0 with s != t must fail")
	}
	if res := DisDist(cl, fr, 0, 1, -3); res.Answer {
		t.Fatal("negative bound must fail")
	}
}
