package core

import (
	"testing"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// wireReach decides qr(s, t) as a wire coordinator does: every fragment's
// rows plus its query part (SourceOnlyReach, TargetOnlyReach), which is
// where the fragment's reachability index is read.
func wireReach(fr *fragment.Fragmentation, s, t graph.NodeID, opt *Options) bool {
	frags := fr.Fragments()
	rows := make([]*Rows, len(frags))
	for i, f := range frags {
		rows[i] = LocalRows(f)
	}
	return rowsAndQueryPart(rows, frags, s, t, opt)
}

// TestFragmentIndexMatchesDirect pins the index's one use: with the
// per-fragment interval labels enabled, the rows plus query part — whose
// TargetOnlyReach takes each in-node SCC's "reaches t" bit from the labels
// — answer exactly like the frontier-cut BFS (forced via NoFragmentIndex)
// and like centralized BFS on the graph: on fresh indexes, under a starved
// budget, and under churn, both racing the rebuilds a write schedules
// (stale labels fall back) and after they land.
func TestFragmentIndexMatchesDirect(t *testing.T) {
	rng := gen.NewRNG(78)
	check := func(trial int, g *graph.Graph, fr *fragment.Fragmentation, leg string) {
		n := g.NumNodes()
		for q := 0; q < 20; q++ {
			s := graph.NodeID(rng.Intn(n))
			tt := graph.NodeID(rng.Intn(n))
			if s == tt {
				continue
			}
			indexed := wireReach(fr, s, tt, nil)
			direct := wireReach(fr, s, tt, &Options{NoFragmentIndex: true})
			if want := g.Reachable(s, tt); indexed != want || direct != want {
				t.Fatalf("trial %d (%s) q(%d,%d): indexed=%v direct=%v want=%v", trial, leg, s, tt, indexed, direct, want)
			}
		}
	}
	for trial := 0; trial < 100; trial++ {
		g, fr, _, _ := randomCase(rng, nil)
		budget := int64(1 << 20)
		if trial%3 == 0 {
			budget = 256 // starve the budget: mostly fallbacks, still correct
		}
		fr.EnableReachIndex(budget)
		fr.WaitReachIndexes()
		check(trial, g, fr, "fresh")
		n := g.NumNodes()
		for step := 0; step < 3; step++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			var err error
			if rng.Intn(3) == 0 {
				_, _, err = fr.DeleteEdge(u, v)
			} else {
				_, _, err = fr.InsertEdge(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			check(trial, g, fr, "racing the rebuild")
			fr.WaitReachIndexes()
			check(trial, g, fr, "rebuilt")
		}
	}
}

// TestFragmentIndexUsedAndCounted checks the hit accounting: on a static
// deployment with an ample budget, the query parts must actually take the
// labels' answers, and count them.
func TestFragmentIndexUsedAndCounted(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 180, Seed: 9})
	fr, err := fragment.Random(g, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	fr.WaitReachIndexes()
	rng := gen.NewRNG(10)
	met := new(EvalMetrics)
	for q := 0; q < 50; q++ {
		s := graph.NodeID(rng.Intn(60))
		tt := graph.NodeID(rng.Intn(60))
		if s == tt {
			continue
		}
		if got, want := wireReach(fr, s, tt, &Options{Metrics: met}), g.Reachable(s, tt); got != want {
			t.Fatalf("q(%d,%d)=%v want %v", s, tt, got, want)
		}
	}
	st := fr.ReachIndexStats()
	if st.Hits == 0 || st.Fallbacks != 0 || met.IndexedEqs != st.Hits {
		t.Fatalf("on a static deployment: %+v, eval metrics %+v; want only hits, counted alike", st, *met)
	}
	if st.Fragments == 0 || st.LabelBytes == 0 {
		t.Fatalf("index stats empty: %+v", st)
	}
}
