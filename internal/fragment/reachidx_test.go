package fragment

import (
	"testing"

	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/reachindex"
)

// TestOverlayAutoCompaction is the bounded-memory churn check: with an
// overlay threshold set, a long stream of single-op update batches must
// never let a fragment's (or the global graph's) overlay grow past the
// threshold plus one batch's worth of growth — the leak this fixes was
// overlays growing without bound until the next rebalance or snapshot.
func TestOverlayAutoCompaction(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 80, Edges: 240, Labels: []string{"A"}, Seed: 31})
	fr, err := Random(g, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64
	fr.SetOverlayLimit(limit)
	rng := gen.NewRNG(32)
	// Slack: one batch can push past the threshold before the fold-back
	// runs, and ops cascade (node deletes touch many rows) — but growth
	// per batch is small, so 2x the limit is a comfortable ceiling that
	// an unbounded overlay blows through within a few hundred steps.
	const slack = 2 * limit
	for step := 0; step < 3000; step++ {
		n := g.NumNodes()
		var ops []Op
		switch rng.Intn(5) {
		case 0, 1:
			ops = []Op{{Kind: OpInsertEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))}}
		case 2, 3:
			ops = []Op{{Kind: OpDeleteEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))}}
		case 4:
			ops = []Op{{Kind: OpInsertNode, Label: "A", Frag: -1}, {Kind: OpDeleteNode, U: graph.NodeID(rng.Intn(n))}}
		}
		if _, err := fr.Apply(ops); err != nil {
			continue // tombstone reference: rejected atomically
		}
		for _, f := range fr.Fragments() {
			if o := f.OverlayEntries(); o > slack {
				t.Fatalf("step %d: fragment %d overlay grew to %d entries (limit %d)", step, f.ID, o, limit)
			}
		}
		if o := fr.Graph().OverlayRows(); o > slack {
			t.Fatalf("step %d: global graph overlay grew to %d rows (limit %d)", step, o, limit)
		}
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	// Negative limit disables the fold-back again.
	fr.SetOverlayLimit(-1)
	grew := false
	for step := 0; step < 500 && !grew; step++ {
		n := g.NumNodes()
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if _, err := fr.Apply([]Op{{Kind: OpInsertEdge, U: u, V: v}}); err != nil {
			continue
		}
		for _, f := range fr.Fragments() {
			if f.OverlayEntries() > limit {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatal("disabling the overlay limit should let overlays grow past it")
	}
}

// TestReachIndexLifecycle: enabling builds an index per fragment;
// mutations retire it and the scheduled rebuild restores it, built over
// the fragment as the last mutation left it; budget 0 disables and drops
// the indexes.
func TestReachIndexLifecycle(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 200, Labels: []string{"A"}, Seed: 41})
	fr, err := Random(g, 4, 41)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	fr.WaitReachIndexes()
	for _, f := range fr.Fragments() {
		if f.ReachIndex() == nil {
			t.Fatalf("fragment %d: no index after enable+wait", f.ID)
		}
	}
	st := fr.ReachIndexStats()
	if !st.Enabled || st.Fragments != fr.Card() || st.LabelBytes == 0 {
		t.Fatalf("bad stats after enable: %+v", st)
	}
	// Churn: every kind of mutation, then wait — fresh indexes must be
	// installed for every dirtied fragment, and must answer for the
	// fragment as it is now.
	rng := gen.NewRNG(42)
	for step := 0; step < 50; step++ {
		n := g.NumNodes()
		ops := []Op{
			{Kind: OpInsertEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))},
			{Kind: OpInsertNode, Label: "A", Frag: -1},
		}
		if _, err := fr.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	fr.WaitReachIndexes()
	for _, f := range fr.Fragments() {
		idx := f.ReachIndex()
		if idx == nil {
			t.Fatalf("fragment %d: index missing after churn+wait", f.ID)
		}
		n := int32(f.NumTotal())
		for u := int32(0); u < n; u++ {
			seen := localReach(f, u)
			for v := int32(0); v < n; v++ {
				if reached, out := idx.Reaches(u, v); out == reachindex.OutcomeHit && reached != seen[v] {
					t.Fatalf("fragment %d: labels say %d reaches %d: %v, the fragment says %v", f.ID, u, v, reached, seen[v])
				}
			}
		}
	}
	if st := fr.ReachIndexStats(); st.Rebuilds == 0 {
		t.Fatalf("no rebuilds recorded: %+v", st)
	}
	fr.EnableReachIndex(0)
	for _, f := range fr.Fragments() {
		if f.ReachIndex() != nil {
			t.Fatalf("fragment %d: index survived disable", f.ID)
		}
	}
}

// TestReachIndexCarryover: the index configuration must survive the two
// whole-state swaps — live rebalance and snapshot install — with the new
// fragmentation rebuilt asynchronously.
func TestReachIndexCarryover(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 50, Edges: 150, Labels: []string{"A"}, Seed: 51})
	fr, err := Random(g, 3, 51)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	rep := NewReplica(fr)
	if ok, err := rep.Rebalance(1, EdgeCutPartitioner{Seed: 7}); !ok || err != nil {
		t.Fatalf("rebalance: ok=%v err=%v", ok, err)
	}
	cur, _ := rep.Current()
	if cur == fr {
		t.Fatal("rebalance did not swap the fragmentation")
	}
	if cur.ReachIndexBudget() != 1<<20 {
		t.Fatalf("budget not carried across rebalance: %d", cur.ReachIndexBudget())
	}
	cur.WaitReachIndexes()
	for _, f := range cur.Fragments() {
		if f.ReachIndex() == nil {
			t.Fatalf("fragment %d: no index after rebalance", f.ID)
		}
	}
	// Snapshot install: a freshly built fragmentation (no index state).
	g2 := gen.Uniform(gen.Config{Nodes: 50, Edges: 150, Labels: []string{"A"}, Seed: 52})
	fr2, err := Random(g2, 3, 52)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Install(fr2, 2, 10) {
		t.Fatal("install refused")
	}
	if fr2.ReachIndexBudget() != 1<<20 {
		t.Fatalf("budget not inherited on install: %d", fr2.ReachIndexBudget())
	}
	fr2.WaitReachIndexes()
	for _, f := range fr2.Fragments() {
		if f.ReachIndex() == nil {
			t.Fatalf("fragment %d: no index after install", f.ID)
		}
	}
}

// TestIndexProbeCountsAcrossSwap: an evaluation loads its fragment's index
// once and may probe it after a rebuild swapped it out; those probes must
// still reach ReachIndexStats, which the benchmark's hit ratio and /stats
// read.
func TestIndexProbeCountsAcrossSwap(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 120, Labels: []string{"A"}, Seed: 43})
	fr, err := Random(g, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	fr.WaitReachIndexes()
	f := fr.Fragments()[0]
	p := f.IndexProbe()
	fr.EnableReachIndex(1 << 20) // a rebuild installs a new index
	fr.WaitReachIndexes()
	if p.idx == nil || f.ReachIndex() == p.idx {
		t.Fatal("no index was swapped out")
	}
	before := fr.ReachIndexStats()
	if reached, out := p.Reaches(0, 0); !reached || out != reachindex.OutcomeHit {
		t.Fatalf("probe of the swapped-out index: %v, outcome %d", reached, out)
	}
	if _, out := p.Reaches(0, int32(f.NumTotal())); out != reachindex.OutcomeUnslotted {
		t.Fatalf("probe past the slots: outcome %d, want unslotted", out)
	}
	after := fr.ReachIndexStats()
	if after.Hits != before.Hits+1 || after.Fallbacks != before.Fallbacks+1 {
		t.Fatalf("stats %+v -> %+v: want one more hit and one more fallback", before, after)
	}
}

// localReach returns the slots local slot u reaches over f's adjacency.
func localReach(f *Fragment, u int32) []bool {
	seen := make([]bool, f.NumTotal())
	seen[u] = true
	for stack := []int32{u}; len(stack) > 0; {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range f.Out(x) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}
