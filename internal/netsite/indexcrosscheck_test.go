package netsite

import (
	"sync"
	"testing"

	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// evalInProc runs one full in-process reach evaluation against the
// fragmentation under the read lock (the same discipline the wire sites
// use), with the given options.
func evalInProc(fr *fragment.Fragmentation, s, t graph.NodeID, opt *core.Options) bool {
	if s == t {
		return true
	}
	fr.RLock()
	partials := make([]*core.Rows, 0, fr.Card())
	for _, f := range fr.Fragments() {
		partials = append(partials, core.LocalEvalReach(f, s, t, opt))
	}
	fr.RUnlock()
	return core.SolveReach(partials, s)
}

// pickLive returns a random live (non-tombstoned) node.
func pickLive(rng *gen.RNG, g *graph.Graph) graph.NodeID {
	for {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !g.Deleted(v) {
			return v
		}
	}
}

// TestIndexChurnCrossCheck is the reachability-index acceptance check: 50
// random fragmented graphs with the per-fragment index enabled (budgets
// rotating from starved to ample), each driven through mixed edge/node
// update batches and a mid-run live rebalance. After every step — both
// while rebuilds are still in flight (exercising the stale-label fallback)
// and after they land (exercising the indexed path) — indexed local
// evaluation, direct local evaluation and the internal/baseline oracle
// must agree on every query. A final phase runs queries concurrently with
// updates to prove the lifecycle race-clean.
func TestIndexChurnCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(91)
	budgets := []int64{256, 1 << 14, 1 << 20}
	for trial := 0; trial < 50; trial++ {
		n := 16 + rng.Intn(90)
		e := n + rng.Intn(4*n)
		seed := uint64(7000 + trial)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 1:
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 2:
			g = gen.Layered(2+rng.Intn(4), 3+rng.Intn(8), 0.3, labels, seed)
		}
		k := 1 + rng.Intn(5)
		fr, err := fragment.Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		fr.EnableReachIndex(budgets[trial%len(budgets)])
		fr.SetOverlayLimit(128) // exercise mid-batch fold-back too
		rep := fragment.NewReplica(fr)
		epoch := uint64(0)
		for step := 0; step < 6; step++ {
			cur, _ := rep.Current()
			cg := cur.Graph()
			ops := make([]fragment.Op, 1+rng.Intn(4))
			for i := range ops {
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					ops[i] = fragment.Op{Kind: fragment.OpInsertEdge, U: pickLive(rng, cg), V: pickLive(rng, cg)}
				case 4, 5:
					ops[i] = fragment.Op{Kind: fragment.OpDeleteEdge, U: pickLive(rng, cg), V: pickLive(rng, cg)}
				case 6:
					ops[i] = fragment.Op{Kind: fragment.OpInsertNode, Label: "A", Frag: -1}
				case 7:
					ops[i] = fragment.Op{Kind: fragment.OpDeleteNode, U: pickLive(rng, cg)}
				}
			}
			if _, _, err := rep.ApplyLSN(0, 0, ops); err != nil {
				continue // tombstone race within the batch: rejected atomically
			}
			if step == 3 {
				epoch++
				if _, err := rep.Rebalance(epoch, fragment.EdgeCutPartitioner{Seed: seed}); err != nil {
					t.Fatalf("trial %d: rebalance: %v", trial, err)
				}
			}
			cur, _ = rep.Current()
			cg = cur.Graph()
			// Phase 0 queries race in-flight rebuilds (fallback path);
			// phase 1 waits so the indexed path is actually exercised.
			for phase := 0; phase < 2; phase++ {
				if phase == 1 {
					cur.WaitReachIndexes()
				}
				for q := 0; q < 6; q++ {
					s, tt := pickLive(rng, cg), pickLive(rng, cg)
					indexed := evalInProc(cur, s, tt, nil)
					direct := evalInProc(cur, s, tt, &core.Options{NoFragmentIndex: true})
					cl := cluster.New(cur.Card(), cluster.NetModel{})
					want := baseline.DisReachN(cl, cur, s, tt).Answer
					if indexed != want || direct != want {
						t.Fatalf("trial %d step %d phase %d q(%d,%d): indexed=%v direct=%v baseline=%v",
							trial, step, phase, s, tt, indexed, direct, want)
					}
				}
			}
		}
		if st := fr.ReachIndexStats(); st.Hits+st.Fallbacks == 0 {
			t.Fatalf("trial %d: no indexed evaluations recorded at all", trial)
		}
	}

	// Concurrent phase: queries (indexed and direct under one lock hold)
	// racing live updates and rebuilds. Answers must agree pairwise; the
	// race detector guards the lifecycle.
	g := gen.PowerLaw(gen.Config{Nodes: 200, Edges: 800, Labels: labels, Seed: 99})
	fr, err := fragment.Random(g, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	rep := fragment.NewReplica(fr)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qrng := gen.NewRNG(uint64(100 + w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cur, _ := rep.Current()
				cg := cur.Graph()
				cur.RLock()
				s, tt := pickLive(qrng, cg), pickLive(qrng, cg)
				var indexed, direct []*core.Rows
				for _, f := range cur.Fragments() {
					indexed = append(indexed, core.LocalEvalReach(f, s, tt, nil))
					direct = append(direct, core.LocalEvalReach(f, s, tt, &core.Options{NoFragmentIndex: true}))
				}
				cur.RUnlock()
				a, b := core.SolveReach(indexed, s), core.SolveReach(direct, s)
				if s != tt && a != b {
					t.Errorf("concurrent q(%d,%d): indexed=%v direct=%v", s, tt, a, b)
					return
				}
			}
		}(w)
	}
	urng := gen.NewRNG(123)
	for i := 0; i < 200; i++ {
		cur, _ := rep.Current()
		cg := cur.Graph()
		op := fragment.Op{Kind: fragment.OpInsertEdge, U: pickLive(urng, cg), V: pickLive(urng, cg)}
		if i%3 == 0 {
			op.Kind = fragment.OpDeleteEdge
		}
		_, _, _ = rep.ApplyLSN(0, 0, []fragment.Op{op})
		if i == 100 {
			if _, err := rep.Rebalance(1, fragment.EdgeCutPartitioner{Seed: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	cur, _ := rep.Current()
	cur.WaitReachIndexes()
}
