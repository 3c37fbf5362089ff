package core

import (
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/rx"
)

// figure1Graph builds the recommendation network of Fig. 1: nodes carry job
// labels, fragments F1..F3 match the paper's placement.
func figure1Graph(t *testing.T) (*graph.Graph, *fragment.Fragmentation, map[string]graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(10)
	names := []struct {
		name, label string
		frag        int
	}{
		{"Ann", "CTO", 0}, {"Bill", "DB", 0}, {"Walt", "HR", 0}, {"Fred", "HR", 0},
		{"Mat", "HR", 1}, {"Emmy", "HR", 1}, {"Jack", "MK", 1},
		{"Pat", "SE", 2}, {"Ross", "HR", 2}, {"Tom", "AI", 2}, {"Mark", "FA", 2},
	}
	ids := map[string]graph.NodeID{}
	assign := make([]int, 0, len(names))
	for _, n := range names {
		ids[n.name] = b.AddNode(n.label)
		assign = append(assign, n.frag)
	}
	edges := [][2]string{
		{"Ann", "Bill"}, {"Ann", "Walt"},
		{"Walt", "Mat"}, {"Bill", "Pat"}, {"Fred", "Emmy"},
		{"Mat", "Fred"}, {"Emmy", "Ross"}, {"Jack", "Emmy"}, {"Mat", "Jack"},
		{"Ross", "Mark"}, {"Pat", "Jack"}, {"Ross", "Tom"},
	}
	for _, e := range edges {
		b.AddEdge(ids[e[0]], ids[e[1]])
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, assign, 3)
	if err != nil {
		t.Fatalf("fragment.Build: %v", err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("fragmentation invalid: %v", err)
	}
	return g, fr, ids
}

func TestDisReachFigure1(t *testing.T) {
	_, fr, ids := figure1Graph(t)
	cl := cluster.New(3, cluster.NetModel{})
	res := DisReach(cl, fr, ids["Ann"], ids["Mark"])
	if !res.Answer {
		t.Fatal("Ann should reach Mark (Example 3)")
	}
	// Every site is visited exactly once.
	for i, v := range res.Report.Visits {
		if v != 1 {
			t.Errorf("site %d visited %d times, want 1", i, v)
		}
	}
	if res := DisReach(cl, fr, ids["Mark"], ids["Ann"]); res.Answer {
		t.Fatal("Mark must not reach Ann")
	}
	if res := DisReach(cl, fr, ids["Tom"], ids["Jack"]); res.Answer {
		t.Fatal("Tom is a sink; must not reach Jack")
	}
}

func TestDisDistFigure1(t *testing.T) {
	g, fr, ids := figure1Graph(t)
	cl := cluster.New(3, cluster.NetModel{})
	// Example 5: qbr(Ann, Mark, 6) is true with distance exactly 6.
	res := DisDist(cl, fr, ids["Ann"], ids["Mark"], 6)
	if !res.Answer || res.Distance != 6 {
		t.Fatalf("qbr(Ann,Mark,6): got answer=%v dist=%d, want true/6", res.Answer, res.Distance)
	}
	if got := g.Dist(ids["Ann"], ids["Mark"]); got != 6 {
		t.Fatalf("oracle dist = %d, want 6", got)
	}
	if res := DisDist(cl, fr, ids["Ann"], ids["Mark"], 5); res.Answer {
		t.Fatal("qbr(Ann,Mark,5) must be false")
	}
	for i, v := range res.Report.Visits {
		if v != 1 {
			t.Errorf("site %d visited %d times, want 1", i, v)
		}
	}
}

func TestDisRPQFigure1(t *testing.T) {
	_, fr, ids := figure1Graph(t)
	cl := cluster.New(3, cluster.NetModel{})
	// Example 1: R = (DB* ∪ HR*): a chain of DB people or of HR people.
	a := automaton.FromRegex(rx.MustParse("DB*|HR*"))
	res := DisRPQ(cl, fr, ids["Ann"], ids["Mark"], a)
	if !res.Answer {
		t.Fatal("qrr(Ann, Mark, DB*|HR*) should hold via the HR chain")
	}
	for i, v := range res.Report.Visits {
		if v != 1 {
			t.Errorf("site %d visited %d times, want 1", i, v)
		}
	}
	// A DB-only chain does not exist.
	if res := DisRPQ(cl, fr, ids["Ann"], ids["Mark"], automaton.FromRegex(rx.MustParse("DB*"))); res.Answer {
		t.Fatal("qrr(Ann, Mark, DB*) must be false")
	}
	// Example 6's second query: qrr(Walt, Mark, (CTO DB*) ∪ HR*) — from
	// Walt the HR* branch applies (Walt -> Mat -> Fred -> Emmy -> Ross ->
	// Mark has interior labels HR HR HR HR).
	if res := DisRPQ(cl, fr, ids["Walt"], ids["Mark"], automaton.FromRegex(rx.MustParse("(CTO DB*)|HR*"))); !res.Answer {
		t.Fatal("qrr(Walt, Mark, (CTO DB*)|HR*) should hold")
	}
}

// randomCase produces a random graph, partition, and endpoints.
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

func TestDisReachMatchesCentralizedBFS(t *testing.T) {
	rng := gen.NewRNG(42)
	for trial := 0; trial < 400; trial++ {
		g, fr, s, tt := randomCase(rng, nil)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		got := DisReach(cl, fr, s, tt).Answer
		want := g.Reachable(s, tt)
		if got != want {
			t.Fatalf("trial %d: disReach(%d,%d)=%v, BFS=%v on %v, %v",
				trial, s, tt, got, want, g, fr)
		}
	}
}

func TestDisDistMatchesCentralizedDistance(t *testing.T) {
	rng := gen.NewRNG(7)
	for trial := 0; trial < 400; trial++ {
		g, fr, s, tt := randomCase(rng, nil)
		l := rng.Intn(12)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		res := DisDist(cl, fr, s, tt, l)
		d := g.Dist(s, tt)
		want := d >= 0 && d <= l
		if res.Answer != want {
			t.Fatalf("trial %d: disDist(%d,%d,%d)=%v, oracle dist=%d on %v, %v",
				trial, s, tt, l, res.Answer, d, g, fr)
		}
		if want && res.Distance != int64(d) {
			t.Fatalf("trial %d: distance %d, oracle %d", trial, res.Distance, d)
		}
		if !want && res.Distance != bes.Inf && res.Distance <= int64(l) {
			t.Fatalf("trial %d: reported in-bound distance %d but oracle says %d", trial, res.Distance, d)
		}
	}
}

var testLabels = []string{"A", "B", "C"}

// randomRegex builds a small random regex over testLabels.
func randomRegex(rng *gen.RNG, depth int) *rx.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return rx.Eps()
		case 1:
			return rx.Lbl(rx.Wildcard)
		default:
			return rx.Lbl(testLabels[rng.Intn(len(testLabels))])
		}
	}
	switch rng.Intn(3) {
	case 0:
		return rx.Cat(randomRegex(rng, depth-1), randomRegex(rng, depth-1))
	case 1:
		return rx.Alt(randomRegex(rng, depth-1), randomRegex(rng, depth-1))
	default:
		return rx.Kleene(randomRegex(rng, depth-1))
	}
}

func TestDisRPQMatchesCentralizedProductBFS(t *testing.T) {
	rng := gen.NewRNG(99)
	for trial := 0; trial < 400; trial++ {
		g, fr, s, tt := randomCase(rng, testLabels)
		a := automaton.FromRegex(randomRegex(rng, 3))
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		got := DisRPQ(cl, fr, s, tt, a).Answer
		want := automaton.Eval(g, s, tt, a)
		if got != want {
			t.Fatalf("trial %d: disRPQ(%d,%d)=%v, oracle=%v on %v, %v, %v",
				trial, s, tt, got, want, g, fr, a)
		}
	}
}

func TestDisRPQRandomAutomata(t *testing.T) {
	rng := gen.NewRNG(123)
	for trial := 0; trial < 300; trial++ {
		g, fr, s, tt := randomCase(rng, testLabels)
		a := automaton.Random(rng, 2+rng.Intn(8), 4+rng.Intn(16), testLabels)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		got := DisRPQ(cl, fr, s, tt, a).Answer
		want := automaton.Eval(g, s, tt, a)
		if got != want {
			t.Fatalf("trial %d: got %v want %v (s=%d t=%d, %v, %v)", trial, got, want, s, tt, g, fr)
		}
	}
}

func TestVisitGuaranteeHoldsOnEveryRun(t *testing.T) {
	rng := gen.NewRNG(5)
	for trial := 0; trial < 100; trial++ {
		_, fr, s, tt := randomCase(rng, testLabels)
		if s == tt {
			continue
		}
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		for name, rep := range map[string]cluster.Report{
			"disReach": DisReach(cl, fr, s, tt).Report,
			"disDist":  DisDist(cl, fr, s, tt, 5).Report,
			"disRPQ": DisRPQ(cl, fr, s, tt,
				automaton.FromRegex(rx.MustParse("A*|B C*"))).Report,
		} {
			for site, v := range rep.Visits {
				if v != 1 {
					t.Fatalf("%s trial %d: site %d visited %d times", name, trial, site, v)
				}
			}
		}
	}
}

// TestTrafficIndependentOfGraphSize pins guarantee (2): with |Vf| held
// fixed, growing the fragment interiors must not grow the traffic.
func TestTrafficIndependentOfGraphSize(t *testing.T) {
	build := func(interior int) (*fragment.Fragmentation, graph.NodeID, graph.NodeID) {
		// Two fragments joined by a single cross edge bridge; each fragment
		// has `interior` extra nodes hanging off its bridge endpoint.
		b := graph.NewBuilder(2 + 2*interior)
		s := b.AddNode("") // fragment 0
		u := b.AddNode("") // fragment 1
		b.AddEdge(s, u)
		assign := []int{0, 1}
		for i := 0; i < interior; i++ {
			v := b.AddNode("")
			b.AddEdge(s, v)
			b.AddEdge(v, s)
			assign = append(assign, 0)
		}
		var last graph.NodeID = u
		for i := 0; i < interior; i++ {
			v := b.AddNode("")
			b.AddEdge(last, v)
			assign = append(assign, 1)
			last = v
		}
		g := b.MustBuild()
		fr, err := fragment.Build(g, assign, 2)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return fr, s, last
	}
	frSmall, s1, t1 := build(5)
	frLarge, s2, t2 := build(500)
	cl := cluster.New(2, cluster.NetModel{})
	small := DisReach(cl, frSmall, s1, t1).Report
	large := DisReach(cl, frLarge, s2, t2).Report
	if small.Bytes != large.Bytes {
		t.Fatalf("traffic grew with graph size: %d -> %d bytes (|Vf| fixed)", small.Bytes, large.Bytes)
	}
}
