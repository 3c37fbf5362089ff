package baseline

import (
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/rx"
)

func randomCase(rng *gen.RNG, labels []string) (*graph.Graph, *fragment.Fragmentation, graph.NodeID, graph.NodeID) {
	n := 2 + rng.Intn(40)
	m := rng.Intn(4 * n)
	g := gen.Uniform(gen.Config{Nodes: n, Edges: m, Labels: labels, Seed: rng.Uint64()})
	k := 1 + rng.Intn(5)
	fr, err := fragment.Random(g, k, rng.Uint64())
	if err != nil {
		panic(err)
	}
	s := graph.NodeID(rng.Intn(n))
	t := graph.NodeID(rng.Intn(n))
	return g, fr, s, t
}

func TestDisReachNMatchesOracle(t *testing.T) {
	rng := gen.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		g, fr, s, tt := randomCase(rng, nil)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		if got, want := DisReachN(cl, fr, s, tt).Answer, g.Reachable(s, tt); got != want {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestDisReachMMatchesOracle(t *testing.T) {
	rng := gen.NewRNG(12)
	for trial := 0; trial < 200; trial++ {
		g, fr, s, tt := randomCase(rng, nil)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		if got, want := DisReachM(cl, fr, s, tt).Answer, g.Reachable(s, tt); got != want {
			t.Fatalf("trial %d: got %v want %v (s=%d t=%d %v %v)", trial, got, want, s, tt, g, fr)
		}
	}
}

func TestDisDistNMatchesOracle(t *testing.T) {
	rng := gen.NewRNG(13)
	for trial := 0; trial < 200; trial++ {
		g, fr, s, tt := randomCase(rng, nil)
		l := rng.Intn(10)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		res := DisDistN(cl, fr, s, tt, l)
		d := g.Dist(s, tt)
		if want := d >= 0 && d <= l; res.Answer != want {
			t.Fatalf("trial %d: got %v want %v (dist=%d l=%d)", trial, res.Answer, want, d, l)
		}
	}
}

var testLabels = []string{"A", "B", "C"}

func TestDisRPQNAndDMatchOracle(t *testing.T) {
	rng := gen.NewRNG(14)
	for trial := 0; trial < 200; trial++ {
		g, fr, s, tt := randomCase(rng, testLabels)
		a := automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(10), testLabels)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		want := automaton.Eval(g, s, tt, a)
		if got := DisRPQN(cl, fr, s, tt, a).Answer; got != want {
			t.Fatalf("trial %d: disRPQn got %v want %v", trial, got, want)
		}
		if got := DisRPQD(cl, fr, s, tt, a).Answer; got != want {
			t.Fatalf("trial %d: disRPQd got %v want %v (s=%d t=%d %v %v)", trial, got, want, s, tt, g, fr)
		}
	}
}

// TestBaselinesAgreeWithCore cross-checks every algorithm pair on the same
// inputs, the property the paper's Table 2 and Fig. 11 rely on: all
// algorithms compute the same answers, only their costs differ.
func TestBaselinesAgreeWithCore(t *testing.T) {
	rng := gen.NewRNG(15)
	a := automaton.FromRegex(rx.MustParse("A (B|C)* A?"))
	for trial := 0; trial < 150; trial++ {
		_, fr, s, tt := randomCase(rng, testLabels)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		r1 := core.DisReach(cl, fr, s, tt).Answer
		if r2 := DisReachN(cl, fr, s, tt).Answer; r1 != r2 {
			t.Fatalf("trial %d: disReach=%v disReachn=%v", trial, r1, r2)
		}
		if r3 := DisReachM(cl, fr, s, tt).Answer; r1 != r3 {
			t.Fatalf("trial %d: disReach=%v disReachm=%v", trial, r1, r3)
		}
		q1 := core.DisRPQ(cl, fr, s, tt, a).Answer
		if q2 := DisRPQD(cl, fr, s, tt, a).Answer; q1 != q2 {
			t.Fatalf("trial %d: disRPQ=%v disRPQd=%v", trial, q1, q2)
		}
	}
}

// TestDisReachMVisitsManySites demonstrates the contrast the paper reports:
// the message-passing baseline visits sites many times while disReach
// visits each exactly once.
func TestDisReachMVisitsManySites(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 300, Edges: 1500, Seed: 9})
	fr, err := fragment.Random(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(4, cluster.NetModel{})
	// Pick a positive query so the BFS actually propagates.
	var s, tt graph.NodeID = 0, 0
	found := false
	for v := graph.NodeID(1); int(v) < g.NumNodes() && !found; v++ {
		if g.Reachable(0, v) && g.Dist(0, v) >= 3 {
			tt, found = v, true
		}
	}
	if !found {
		t.Skip("no deep positive query in generated graph")
	}
	mRep := DisReachM(cl, fr, s, tt).Report
	pRep := core.DisReach(cl, fr, s, tt).Report
	if pRep.MaxVisits != 1 {
		t.Fatalf("disReach max visits = %d, want 1", pRep.MaxVisits)
	}
	if mRep.TotalVisits <= pRep.TotalVisits {
		t.Fatalf("disReachm total visits = %d, expected more than disReach's %d",
			mRep.TotalVisits, pRep.TotalVisits)
	}
}
