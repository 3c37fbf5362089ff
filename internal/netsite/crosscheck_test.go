package netsite

import (
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestBatchWireCrossCheck is the randomized cross-check of the wire batch
// path: ~50 random fragmented graphs of varying shape, each hit with a
// mixed Reach/ReachWithin/ReachRegex batch over real TCP. Every answer
// must be identical to (a) the naive single-query baselines of
// internal/baseline — which ship whole fragments and solve centrally, a
// maximally different code path — and (b) for the reach queries, to
// core.DisReachBatch, the in-process one-visit-per-batch algorithm the
// wire protocol mirrors. The frames-per-site bound is asserted on every
// trial along the way.
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
		var reachQs []core.Query // the reach subset, for DisReachBatch
		var reachIdx []int
		anyWire := false
		for i := 0; i < m; i++ {
			q := BatchQuery{
				S: graph.NodeID(rng.Intn(nn)),
				T: graph.NodeID(rng.Intn(nn)),
			}
			switch i % 3 {
			case 0:
				q.Class = ClassReach
				reachQs = append(reachQs, core.Query{S: q.S, T: q.T})
				reachIdx = append(reachIdx, i)
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

		// (b) The reach subset against the in-process batch algorithm.
		if len(reachQs) > 0 {
			res := core.DisReachBatch(cl, fr, reachQs)
			for j, i := range reachIdx {
				if answers[i].Answer != res.Answers[j] {
					t.Fatalf("trial %d query %d: qr(%d,%d) wire=%v DisReachBatch=%v",
						trial, i, qs[i].S, qs[i].T, answers[i].Answer, res.Answers[j])
				}
			}
		}

		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}
