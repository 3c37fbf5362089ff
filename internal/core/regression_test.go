package core

import (
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestRegressionTargetAsAliasRep pins a bug found by testing/quick: when
// the target t is itself an in-node and shares a local SCC with other
// in-nodes, the SCC-alias compression could elect t as the representative;
// Xt's equation then lacked the trivially-true constant (t reaches itself),
// so truth never flowed through the alias chain. Instance: seed
// 0x7835d3ab52e3ade1, n=17, k=2, qr(1, 6) — node 6 is an in-node of
// fragment 0 and the target.
func TestRegressionTargetAsAliasRep(t *testing.T) {
	seed := uint64(0x7835d3ab52e3ade1)
	rng := gen.NewRNG(seed)
	n := 2 + rng.Intn(30)
	g := gen.Uniform(gen.Config{Nodes: n, Edges: rng.Intn(3 * n), Seed: seed})
	fr, err := fragment.Random(g, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, tt := graph.NodeID(1), graph.NodeID(6)
	cl := cluster.New(fr.Card(), cluster.NetModel{})
	if got, want := DisReach(cl, fr, s, tt).Answer, g.Reachable(s, tt); got != want {
		t.Fatalf("disReach = %v, oracle = %v", got, want)
	}
	if res := DisDist(cl, fr, s, tt, n); int(res.Distance) != g.Dist(s, tt) {
		t.Fatalf("disDist distance = %d, oracle = %d", res.Distance, g.Dist(s, tt))
	}
}

// TestSoakAllAlgorithms is a broad randomized soak across all three query
// classes with target-as-in-node instances deliberately over-represented
// (small graphs, many fragments, targets drawn from a small range so they
// often sit on fragment boundaries).
func TestSoakAllAlgorithms(t *testing.T) {
	rng := gen.NewRNG(0xfeedface)
	labels := []string{"A", "B", "C"}
	trials := 800
	if testing.Short() {
		trials = 150
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(24)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: rng.Intn(4 * n), Labels: labels, Seed: rng.Uint64()})
		k := 1 + rng.Intn(6)
		fr, err := fragment.Random(g, k, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.New(k, cluster.NetModel{})
		s := graph.NodeID(rng.Intn(n))
		tt := graph.NodeID(rng.Intn(min(6, n))) // bias towards few targets
		if got, want := DisReach(cl, fr, s, tt).Answer, g.Reachable(s, tt); got != want {
			t.Fatalf("trial %d: disReach=%v oracle=%v (s=%d t=%d %v %v)", trial, got, want, s, tt, g, fr)
		}
		l := rng.Intn(8)
		res := DisDist(cl, fr, s, tt, l)
		d := g.Dist(s, tt)
		if want := d >= 0 && d <= l; res.Answer != want {
			t.Fatalf("trial %d: disDist=%v oracle dist=%d l=%d", trial, res.Answer, d, l)
		}
		a := automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(10), labels)
		if got, want := DisRPQ(cl, fr, s, tt, a).Answer, automaton.Eval(g, s, tt, a); got != want {
			t.Fatalf("trial %d: disRPQ=%v oracle=%v", trial, got, want)
		}
	}
}
