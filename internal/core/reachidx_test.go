package core

import (
	"bytes"
	"fmt"
	"sync"
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

// TestFragmentIndexMatchesDirect pins the index's one use and the one
// search from t that stands in for it. Over seeded graphs, every
// partitioner, and edge and node churn — both racing the rebuilds a write
// schedules and after they land — for every fragment and every target:
//
//   - TargetOnlyReach with the labels installed encodes byte for byte as
//     TargetOnlyReach with NoFragmentIndex (the search back from t);
//   - DistQueryPart encodes as distQueryPartOracle, the per-in-node
//     forward cut it replaced, for l in 1..8 and for l past the diameter;
//   - the rows plus query parts answer qr(s, t) as centralized BFS does,
//     labels or not.
func TestFragmentIndexMatchesDirect(t *testing.T) {
	rng := gen.NewRNG(78)
	labelled := 0 // targets whose part the labels decided
	check := func(trial int, g *graph.Graph, fr *fragment.Fragmentation, leg string) {
		n := g.NumNodes()
		live := func(v graph.NodeID) bool { return fr.Owner(v) >= 0 }
		s := graph.NodeID(rng.Intn(n))
		for _, f := range fr.Fragments() {
			for tt := graph.NodeID(0); int(tt) < n; tt++ {
				if !live(tt) {
					continue
				}
				met := new(EvalMetrics)
				indexed := TargetOnlyReach(f, tt, &Options{Metrics: met})
				direct := TargetOnlyReach(f, tt, &Options{NoFragmentIndex: true})
				if !sameRows(indexed, direct) {
					t.Fatalf("trial %d (%s) fragment %d t=%d: labels %v, search %v", trial, leg, f.ID, tt, rowsHeads(indexed), rowsHeads(direct))
				}
				if met.IndexedEqs > 0 && met.OverBudgetEqs == 0 {
					labelled++
				}
				for _, l := range []int{1, 2, 3, 4, 5, 6, 7, 8, n + 1} { // n+1: past the diameter
					if got, want := DistQueryPart(f, s, tt, l), distQueryPartOracle(f, s, tt, l); !sameRows(got, want) {
						t.Fatalf("trial %d (%s) fragment %d qbr(%d,%d,%d): search %v, oracle %v", trial, leg, f.ID, s, tt, l, rowsHeads(got), rowsHeads(want))
					}
				}
			}
		}
		for q := 0; q < 20; q++ {
			s, tt := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if s == tt || !live(s) || !live(tt) {
				continue
			}
			indexed := wireReach(fr, s, tt, nil)
			direct := wireReach(fr, s, tt, &Options{NoFragmentIndex: true})
			if want := g.Reachable(s, tt); indexed != want || direct != want {
				t.Fatalf("trial %d (%s) q(%d,%d): indexed=%v direct=%v want=%v", trial, leg, s, tt, indexed, direct, want)
			}
		}
	}
	parts := fragment.Names()
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(40)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: rng.Intn(4 * n), Seed: rng.Uint64()})
		p, err := fragment.ByName(parts[trial%len(parts)], rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fragment.Partition(g, p, 1+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(1 << 20)
		if trial%4 == 3 {
			budget = 256 // starve the budget: mostly searches, still the same parts
		}
		fr.EnableReachIndex(budget)
		fr.WaitReachIndexes()
		check(trial, g, fr, "fresh")
		for step := 0; step < 3; step++ {
			u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			var op fragment.Op
			switch rng.Intn(5) {
			case 0:
				op = fragment.Op{Kind: fragment.OpDeleteEdge, U: u, V: v}
			case 1:
				op = fragment.Op{Kind: fragment.OpInsertNode, Frag: -1}
			case 2:
				op = fragment.Op{Kind: fragment.OpDeleteNode, U: u}
			default:
				op = fragment.Op{Kind: fragment.OpInsertEdge, U: u, V: v}
			}
			if _, err := fr.Apply([]fragment.Op{op}); err != nil && op.Kind != fragment.OpInsertEdge && op.Kind != fragment.OpDeleteEdge {
				t.Fatal(err)
			}
			check(trial, g, fr, "racing the rebuild")
			fr.WaitReachIndexes()
			check(trial, g, fr, "rebuilt")
		}
	}
	if labelled == 0 {
		t.Fatal("the labels decided no target part")
	}
}

// distQueryPartOracle is DistQueryPart as one forward cut per node: s's
// and then every in-node's, keeping an in-node when its cut meets t within
// l.
func distQueryPartOracle(f *fragment.Fragment, s, t graph.NodeID, l int) *Rows {
	var rv *Rows
	var bfs cutDist
	if ls, ok := f.Local(s); ok && !f.IsVirtual(ls) && !f.IsInNode(ls) {
		bfs.from(f, ls, t, l)
		rv = newRows(1, true)
		rv.add(s, bfs.cons, bfs.vars, bfs.ws)
	}
	if lt, ok := f.Local(t); ok && !f.IsBoundary(lt) {
		for _, v := range f.InNodes() {
			bfs.from(f, v, t, l)
			if bfs.cons != NoConst {
				if rv == nil {
					rv = newRows(1, true)
				}
				rv.add(f.Global(v), bfs.cons, nil, nil)
			}
		}
	}
	return rv
}

// sameRows reports whether a and b are both nil or encode byte for byte
// alike.
func sameRows(a, b *Rows) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, errA := a.MarshalBinary()
	y, errB := b.MarshalBinary()
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// rowsHeads lists the heads and constants of rv, for failure messages.
func rowsHeads(rv *Rows) []string {
	var out []string
	for i := 0; i < rv.NumEqs(); i++ {
		node, cons, _, _ := rv.Eq(i)
		out = append(out, fmt.Sprintf("X%d<=%d", node, cons))
	}
	return out
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

// TestQueryPartsBesideWrites runs query parts concurrently with a writer
// applying edge and node ops to an indexed fragmentation, on
// TestReachIndexLifecycle's pattern: each reader holds the read lock for
// one query, as a site does, while the writes retire labels and their
// rebuilds race the reads. Every qr and qbr answer from the rows plus the
// query parts must equal centralized reachability and distance on the
// graph the reader sees. Run it with -race -count 300 -cpu 1,2,4.
func TestQueryPartsBesideWrites(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 120, Seed: 61})
	fr, err := fragment.Random(g, 3, 61)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	fr.WaitReachIndexes()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := gen.NewRNG(seed)
			for q := 0; ; q++ {
				select {
				case <-done:
					if q >= 8 {
						return
					}
				default:
				}
				fr.RLock()
				n := g.NumNodes()
				s, tt, l := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 1+rng.Intn(6)
				if s != tt && fr.Owner(s) >= 0 && fr.Owner(tt) >= 0 {
					frags := fr.Fragments()
					rows := make([]*Rows, len(frags))
					for i, f := range frags {
						rows[i] = LocalRows(f)
					}
					if got, want := rowsAndQueryPart(rows, frags, s, tt, nil), g.Reachable(s, tt); got != want {
						t.Errorf("qr(%d,%d) = %v, want %v", s, tt, got, want)
					}
					want := g.Dist(s, tt)
					if want > l {
						want = -1
					}
					if got := rowsAndDistPart(rows, frags, s, tt, l); got != want {
						t.Errorf("qbr(%d,%d,%d) = %d, want %d", s, tt, l, got, want)
					}
				}
				fr.RUnlock()
			}
		}(uint64(62 + r))
	}
	rng := gen.NewRNG(60)
	for step := 0; step < 20; step++ {
		n := g.NumNodes()
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		ops := []fragment.Op{{Kind: fragment.OpInsertEdge, U: u, V: v}}
		switch step % 4 {
		case 1:
			ops = []fragment.Op{{Kind: fragment.OpDeleteEdge, U: u, V: v}}
		case 2:
			ops = append(ops, fragment.Op{Kind: fragment.OpInsertNode, Frag: -1})
		case 3:
			ops = []fragment.Op{{Kind: fragment.OpDeleteNode, U: u}}
		}
		fr.Apply(ops) // an edge op naming a deleted node is refused whole
	}
	close(done)
	wg.Wait()
	fr.WaitReachIndexes()
}
