package netsite

import (
	"slices"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/rx"
)

// TestBatchWireCrossCheck is the randomized cross-check of the wire batch
// path: ~50 random fragmented graphs of varying shape, each hit with a
// mixed Reach/ReachWithin/ReachRegex batch over real TCP. Every answer
// must be identical to (a) the naive single-query baselines of
// internal/baseline — which ship whole fragments and solve centrally, a
// maximally different code path — and (b) for the reach queries, to
// core.DisReach per query, the in-process algorithm whose equations the
// wire protocol splits into rows and query parts. The frames-per-site
// bound is asserted on every trial along the way.
func TestBatchWireCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(71)
	for trial := 0; trial < 50; trial++ {
		n := 16 + rng.Intn(110)
		e := n + rng.Intn(4*n)
		seed := uint64(1000 + trial)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 1:
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 2:
			g = gen.Layered(2+rng.Intn(4), 3+rng.Intn(8), 0.3, labels, seed)
		}
		nn := g.NumNodes()
		k := 1 + rng.Intn(5)
		fr, err := fragment.Random(g, k, seed)
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
		// Full rounds: this test pins the classic per-batch frame guarantee
		// (anytime early termination may retire an all-reach batch with
		// fewer finals; TestAnytimeCrossCheck covers that protocol).
		co.SetAnytime(false)

		m := 1 + rng.Intn(16)
		qs := make([]BatchQuery, 0, m)
		anyWire := false
		for i := 0; i < m; i++ {
			q := BatchQuery{
				S: graph.NodeID(rng.Intn(nn)),
				T: graph.NodeID(rng.Intn(nn)),
			}
			switch i % 3 {
			case 0:
				q.Class = ClassReach
				anyWire = anyWire || q.S != q.T
			case 1:
				q.Class = ClassDist
				q.L = rng.Intn(9)
				anyWire = anyWire || (q.S != q.T && q.L > 0)
			case 2:
				q.Class = ClassRPQ
				q.A = automaton.Random(rng, 2+rng.Intn(3), 3+rng.Intn(6), labels)
				anyWire = anyWire || q.S != q.T || !q.A.AcceptsLabels(nil)
			}
			qs = append(qs, q)
		}

		answers, st, err := co.Batch(qs)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d m=%d): %v", trial, nn, k, m, err)
		}
		// The expected set: the coordinator is fresh, so a batch that needs
		// the wire is a cold round and posts exactly one frame to every
		// site, whatever its size; one answered locally posts none.
		wantFrames := int64(0)
		if anyWire {
			wantFrames = int64(k)
		}
		if st.FramesSent != wantFrames || st.FramesReceived != wantFrames {
			t.Fatalf("trial %d: %d/%d frames for %d queries over %d sites, want %d (a cold round: every site)",
				trial, st.FramesSent, st.FramesReceived, m, k, wantFrames)
		}

		// (a) Per-query naive baselines: fragments shipped whole, solved
		// centrally — no shared code with the batch path past the graph.
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		for i, q := range qs {
			var want bool
			switch q.Class {
			case ClassReach:
				want = baseline.DisReachN(cl, fr, q.S, q.T).Answer
			case ClassDist:
				res := baseline.DisDistN(cl, fr, q.S, q.T, q.L)
				want = res.Answer
				// The baseline's BFS knows the exact distance even beyond
				// the bound; the wire path prunes at l, so its distance is
				// exact only within the bound and > l otherwise.
				if res.Answer && answers[i].Dist != res.Distance {
					t.Fatalf("trial %d query %d: qbr(%d,%d,%d) wire dist %d, baseline %d",
						trial, i, q.S, q.T, q.L, answers[i].Dist, res.Distance)
				}
				if !res.Answer && answers[i].Dist <= int64(q.L) {
					t.Fatalf("trial %d query %d: qbr(%d,%d,%d) unreachable within bound but wire dist %d",
						trial, i, q.S, q.T, q.L, answers[i].Dist)
				}
			case ClassRPQ:
				want = baseline.DisRPQN(cl, fr, q.S, q.T, q.A).Answer
			}
			if answers[i].Answer != want {
				t.Fatalf("trial %d query %d: class %q (%d->%d) wire=%v baseline=%v",
					trial, i, byte(q.Class), q.S, q.T, answers[i].Answer, want)
			}
		}

		// (b) The reach subset against the in-process algorithm.
		for i, q := range qs {
			if q.Class != ClassReach {
				continue
			}
			if want := core.DisReach(cl, fr, q.S, q.T, nil).Answer; answers[i].Answer != want {
				t.Fatalf("trial %d query %d: qr(%d,%d) wire=%v DisReach=%v",
					trial, i, q.S, q.T, answers[i].Answer, want)
			}
		}

		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// TestRegexWireCrossCheck pins the qrr path — product rows shipped as
// core.Rows, one walk at the coordinator — on 50 seeded graphs under each
// shipped partitioner, with random automata and false answers included:
// every wire answer equals automaton.Eval on the graph, and every Touched
// set of a coordinator that holds the rows is the one core.WalkRPQ reads
// off the same product rows with the fragmentation's own owners, within
// the owners of the nodes s reaches; a cold coordinator's contains it.
func TestRegexWireCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(4403)
	var answered [2]int
	for trial := 0; trial < 50; trial++ {
		n := 16 + rng.Intn(100)
		seed := uint64(4000 + trial)
		var g *graph.Graph
		if trial%2 == 0 {
			g = gen.Uniform(gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: labels, Seed: seed})
		} else {
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: labels, Seed: seed})
		}
		for _, name := range fragment.Names() {
			p, err := fragment.ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := fragment.Partition(g.Clone(), p, 2+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			qs := make([]BatchQuery, 6)
			for i := range qs {
				qs[i] = BatchQuery{Class: ClassRPQ, S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n)),
					A: automaton.Random(rng, 2+rng.Intn(3), 3+rng.Intn(6), labels)}
			}
			sites, addrs, err := ServeFragmentation(fr)
			if err != nil {
				t.Fatal(err)
			}
			co, err := Dial(addrs, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			// Cold, the coordinator holds no rows and the sites ship none;
			// a distance round then fetches every site's rows.
			cold, _, err := co.Batch(qs)
			if err == nil {
				_, _, _, err = co.ReachWithin(0, 1, 1)
			}
			var answers []BatchAnswer
			if err == nil {
				answers, _, err = co.Batch(qs)
			}
			co.Close()
			for _, s := range sites {
				s.Close()
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for i, q := range qs {
				if q.S == q.T && q.A.AcceptsLabels(nil) {
					continue // answered without the wire
				}
				want := automaton.Eval(g, q.S, q.T, q.A)
				if answers[i].Answer != want || cold[i].Answer != want {
					t.Fatalf("trial %d %s query %d: qrr(%d,%d) wire=%v (cold %v) oracle=%v", trial, name, i, q.S, q.T, answers[i].Answer, cold[i].Answer, want)
				}
				answered[btoi(want)]++
				parts := make([]*core.Rows, fr.Card())
				for f, frag := range fr.Fragments() {
					parts[f] = core.LocalEvalRPQ(frag, q.S, q.T, q.A)
				}
				_, touched := core.WalkRPQ(parts, q.S, q.A.NumStates(), fr.Owner)
				if !slices.Equal(answers[i].Touched, touched) {
					t.Fatalf("trial %d %s query %d: wire touched %v, the walk over the same rows %v", trial, name, i, answers[i].Touched, touched)
				}
				for _, f := range touched {
					if !slices.Contains(cold[i].Touched, f) {
						t.Fatalf("trial %d %s query %d: cold touched %v misses fragment %d of %v", trial, name, i, cold[i].Touched, f, touched)
					}
				}
				reached := make([]bool, fr.Card())
				for v, ok := range g.Descendants(q.S) {
					if ok {
						reached[fr.Owner(graph.NodeID(v))] = true
					}
				}
				for _, f := range touched {
					if !reached[f] {
						t.Fatalf("trial %d %s query %d: touched %v names fragment %d, which no node s reaches is in", trial, name, i, touched, f)
					}
				}
			}
		}
	}
	t.Logf("%d false and %d true answers", answered[0], answered[1])
	if answered[0] == 0 || answered[1] == 0 {
		t.Fatalf("answers false/true: %v, want both", answered)
	}
}

// TestRegexTouchedSound is the wire leg of TestTouchedSound for qrr: after
// edge updates whose dirty fragments all lie outside a query's Touched
// set, the answer on the updated graph is what it was; an update that
// meets the set may change it, and some in the corpus must.
func TestRegexTouchedSound(t *testing.T) {
	// First a fixed case for the owners of walked variables no part
	// defines: s = 0 (fragment 0) reaches v = 1 (fragment 1), labelled A,
	// which has no successor yet, so fragment 1 sends nothing for (v, A);
	// inserting v -> t = 2 (fragment 2) makes qrr(0, 2, "A") true. Touched
	// must name fragment 1, whose edge that is.
	b := graph.NewBuilder(3)
	for _, l := range []string{"A", "A", "B"} {
		b.AddNode(l)
	}
	b.AddEdge(0, 1)
	fixed, err := fragment.Build(b.MustBuild(), []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fixed)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q := []BatchQuery{{Class: ClassRPQ, S: 0, T: 2, A: automaton.FromRegex(rx.MustParse("A"))}}
	before, _, err := co.Batch(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Update(UpdateInsert, 1, 2); err != nil {
		t.Fatal(err)
	}
	after, _, err := co.Batch(q)
	co.Close()
	for _, s := range sites {
		s.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if before[0].Answer || !after[0].Answer || !slices.Contains(before[0].Touched, 1) {
		t.Fatalf("fixed case: %v touching %v, then %v after inserting 1 -> 2; want false touching fragment 1, then true",
			before[0].Answer, before[0].Touched, after[0].Answer)
	}

	labels := []string{"A", "B"}
	rng := gen.NewRNG(4404)
	flipped, outside := 0, 0
	for trial := 0; trial < 120; trial++ {
		// Sparse graphs over many fragments, so that Touched leaves some out.
		n := 20 + rng.Intn(60)
		seed := uint64(5000 + trial)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: n/2 + rng.Intn(n), Labels: labels, Seed: seed})
		mirror := g.Clone()
		fr, err := fragment.Random(g, 3+rng.Intn(4), seed)
		if err != nil {
			t.Fatal(err)
		}
		sites, addrs, err := ServeFragmentation(fr)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Dial(addrs, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		q := BatchQuery{Class: ClassRPQ, S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n)),
			A: automaton.FromRegex(rx.MustParse([]string{"A B* A", "(A|B)* B", "(A|B)*", "A (A|B)*"}[rng.Intn(4)]))}
		answers, _, err := co.Batch([]BatchQuery{q})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before, touched := answers[0].Answer, answers[0].Touched
		evicted := false
		for step := 0; step < 6; step++ {
			// Half the insertions start at s, end at t or both, which can
			// flip the answer; the rest go anywhere.
			op, u, v := UpdateInsert, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			switch rng.Intn(6) {
			case 0:
				u = q.S
			case 1:
				v = q.T
			case 2:
				u, v = q.S, q.T
			}
			if rng.Intn(3) == 0 && mirror.NumEdges() > 0 {
				op = UpdateDelete
				u, v = pickEdge(mirror, rng)
			}
			res, _, err := co.Update(op, u, v)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if op == UpdateInsert {
				mirror.InsertEdge(u, v)
			} else {
				mirror.DeleteEdge(u, v)
			}
			after := automaton.Eval(mirror, q.S, q.T, q.A)
			if !evicted && slices.ContainsFunc(res.Dirty, func(f int) bool { return slices.Contains(touched, f) }) {
				evicted = true
				if after != before {
					flipped++
				}
			}
			if !evicted {
				outside++
			}
			if !evicted && after != before {
				t.Fatalf("trial %d step %d: qrr(%d,%d) went %v -> %v after an update dirtying %v, outside touched %v",
					trial, step, q.S, q.T, before, after, res.Dirty, touched)
			}
		}
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
	t.Logf("%d updates met a touched set and changed the answer, %d missed every touched set", flipped, outside)
	if flipped == 0 || outside == 0 {
		t.Errorf("%d updates met a touched set and changed the answer, %d missed every touched set: want both", flipped, outside)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
