package core

import (
	"sync/atomic"
	"testing"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// evalAll runs the full in-process evaluation (every fragment's partial
// plus the solve) under the given options.
func evalAll(fr *fragment.Fragmentation, s, t graph.NodeID, opt *Options) bool {
	if s == t {
		return true
	}
	partials := make([]*ReachPartial, 0, fr.Card())
	for _, f := range fr.Fragments() {
		partials = append(partials, LocalEvalReach(f, s, t, opt))
	}
	return SolveReach(partials, s)
}

// TestLocalEvalReachThreadsOptions is the regression test for the dropped
// options bug: LocalEvalReach used to hardcode &Options{}, so a caller's
// options were silently ignored on the MapReduce path. The
// counting Cancel hook proves the options now reach localEval, and the
// answers stay correct either way.
func TestLocalEvalReachThreadsOptions(t *testing.T) {
	var polled atomic.Int64
	opt := &Options{Cancel: func() bool {
		polled.Add(1)
		return false
	}}
	rng := gen.NewRNG(77)
	for trial := 0; trial < 50; trial++ {
		g, fr, s, tt := randomCase(rng, nil)
		got := evalAll(fr, s, tt, opt)
		if want := g.Reachable(s, tt); got != want {
			t.Fatalf("trial %d: eval with options %v, want %v", trial, got, want)
		}
		// nil must mean defaults, not a crash.
		if got := evalAll(fr, s, tt, nil); got != g.Reachable(s, tt) {
			t.Fatalf("trial %d: nil-options eval diverged", trial)
		}
	}
	if polled.Load() == 0 {
		t.Fatal("caller-supplied Cancel was never polled — options are being dropped again")
	}
}

// TestFragmentIndexMatchesDirect pins the tentpole's core claim: with the
// per-fragment reachability index enabled, local evaluation through
// Equation lookups answers exactly like the direct frontier-cut BFS
// (forced via NoFragmentIndex) and like centralized BFS on the graph.
func TestFragmentIndexMatchesDirect(t *testing.T) {
	rng := gen.NewRNG(78)
	for trial := 0; trial < 100; trial++ {
		g, fr, _, _ := randomCase(rng, nil)
		budget := int64(1 << 20)
		if trial%3 == 0 {
			budget = 256 // starve the budget: mostly fallbacks, still correct
		}
		fr.EnableReachIndex(budget)
		fr.WaitReachIndexes()
		n := g.NumNodes()
		for q := 0; q < 20; q++ {
			s := graph.NodeID(rng.Intn(n))
			tt := graph.NodeID(rng.Intn(n))
			indexed := evalAll(fr, s, tt, nil)
			direct := evalAll(fr, s, tt, &Options{NoFragmentIndex: true})
			want := g.Reachable(s, tt)
			if indexed != want || direct != want {
				t.Fatalf("trial %d q(%d,%d): indexed=%v direct=%v want=%v (budget %d)",
					trial, s, tt, indexed, direct, want, budget)
			}
		}
	}
}

// TestFragmentIndexUsedAndCounted checks the hit accounting: on a static
// deployment with an ample budget, indexed evaluation must actually take
// the index path.
func TestFragmentIndexUsedAndCounted(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 180, Seed: 9})
	fr, err := fragment.Random(g, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	fr.WaitReachIndexes()
	rng := gen.NewRNG(10)
	for q := 0; q < 50; q++ {
		s := graph.NodeID(rng.Intn(60))
		tt := graph.NodeID(rng.Intn(60))
		if got, want := evalAll(fr, s, tt, nil), g.Reachable(s, tt); got != want {
			t.Fatalf("q(%d,%d)=%v want %v", s, tt, got, want)
		}
	}
	st := fr.ReachIndexStats()
	if st.Hits == 0 {
		t.Fatalf("no index hits recorded on a static deployment: %+v", st)
	}
	if st.Fragments == 0 || st.LabelBytes == 0 {
		t.Fatalf("index stats empty: %+v", st)
	}
}
