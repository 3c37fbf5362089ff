package fragment

import (
	"reflect"
	"testing"

	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestCompactMatchesFreshBuild replays random mixed mutation sequences
// (edge and node ops) with Compact interleaved at random points, and
// checks after every compaction that the fragmentation is bit-identical
// to one built from scratch on the mutated graph with the same
// assignment: same local numbering, same adjacency rows, same labels,
// same in-node sets — and that every overlay is empty. This is the
// correctness contract of the CSR storage: compaction renumbers local
// indices, but local indices never escape the fragment (equations and
// wire frames use global IDs), so the canonical Build order is always
// reachable.
func TestCompactMatchesFreshBuild(t *testing.T) {
	rng := gen.NewRNG(23)
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(40)
		m := n + rng.Intn(3*n)
		k := 1 + rng.Intn(5)
		g := testGraph(uint64(300+trial), n, m)
		fr, err := Random(g, k, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			switch rng.Intn(6) {
			case 0:
				if g.NumEdges() > 0 {
					e := edgeList(g)[rng.Intn(g.NumEdges())]
					if _, _, err := fr.DeleteEdge(e[0], e[1]); err != nil {
						t.Fatalf("trial %d step %d: %v", trial, step, err)
					}
				}
			case 1, 2:
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if g.Deleted(u) || g.Deleted(v) {
					continue
				}
				if _, _, err := fr.InsertEdge(u, v); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			case 3:
				if _, _, err := fr.InsertNode("x", -1); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			case 4:
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if g.Deleted(v) {
					continue
				}
				if _, _, err := fr.DeleteNode(v); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			default:
				fr.Compact()
				checkCompact(t, fr, k, trial, step)
			}
			if err := fr.Validate(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		fr.Compact()
		checkCompact(t, fr, k, trial, -1)
	}
}

// checkCompact asserts fr is overlay-free and bit-identical to a fresh
// Build on its current graph and assignment.
func checkCompact(t *testing.T, fr *Fragmentation, k, trial, step int) {
	t.Helper()
	g := fr.Graph()
	assign := make([]int, g.NumNodes())
	for v := range assign {
		assign[v] = fr.Owner(graph.NodeID(v))
	}
	want, err := Build(g, assign, k)
	if err != nil {
		t.Fatalf("trial %d step %d: rebuild: %v", trial, step, err)
	}
	for i, f := range fr.Fragments() {
		wf := want.Fragments()[i]
		if f.OverlayEntries() != 0 {
			t.Fatalf("trial %d step %d fragment %d: %d overlay entries after Compact",
				trial, step, i, f.OverlayEntries())
		}
		if f.NumLocal() != wf.NumLocal() || f.NumTotal() != wf.NumTotal() || f.NumEdges() != wf.NumEdges() {
			t.Fatalf("trial %d step %d fragment %d: shape %d/%d/%d, rebuild %d/%d/%d",
				trial, step, i, f.NumLocal(), f.NumTotal(), f.NumEdges(),
				wf.NumLocal(), wf.NumTotal(), wf.NumEdges())
		}
		for l := int32(0); int(l) < f.NumTotal(); l++ {
			if f.Global(l) != wf.Global(l) {
				t.Fatalf("trial %d step %d fragment %d slot %d: global %d, rebuild %d",
					trial, step, i, l, f.Global(l), wf.Global(l))
			}
			if f.Label(l) != wf.Label(l) {
				t.Fatalf("trial %d step %d fragment %d slot %d: label %q, rebuild %q",
					trial, step, i, l, f.Label(l), wf.Label(l))
			}
			if f.IsInNode(l) != wf.IsInNode(l) {
				t.Fatalf("trial %d step %d fragment %d slot %d: isIn mismatch", trial, step, i, l)
			}
			got, wantRow := f.Out(l), wf.Out(l)
			if len(got) != len(wantRow) || (len(got) > 0 && !reflect.DeepEqual(got, wantRow)) {
				t.Fatalf("trial %d step %d fragment %d slot %d: row %v, rebuild %v",
					trial, step, i, l, got, wantRow)
			}
			if back, ok := f.Local(f.Global(l)); !ok || back != l {
				t.Fatalf("trial %d step %d fragment %d slot %d: index roundtrip broken", trial, step, i, l)
			}
		}
		if len(f.InNodes()) != len(wf.InNodes()) ||
			(len(f.InNodes()) > 0 && !reflect.DeepEqual(f.InNodes(), wf.InNodes())) {
			t.Fatalf("trial %d step %d fragment %d: inNodes %v, rebuild %v",
				trial, step, i, f.InNodes(), wf.InNodes())
		}
	}
}

// TestCompactPreservesQueries checks that compaction is invisible to
// local evaluation: the fragment's derived graph view answers the same
// reachability questions before and after.
func TestCompactPreservesQueries(t *testing.T) {
	rng := gen.NewRNG(29)
	g := testGraph(77, 40, 120)
	fr, err := Random(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !g.Deleted(u) && !g.Deleted(v) {
			if _, _, err := fr.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Record reachability between all global pairs through fragment 0's view.
	f := fr.Fragments()[0]
	type pair struct{ u, v graph.NodeID }
	before := map[pair]bool{}
	view := localGraph(f)
	for lu := int32(0); int(lu) < f.NumTotal(); lu++ {
		for lv := int32(0); int(lv) < f.NumTotal(); lv++ {
			before[pair{f.Global(lu), f.Global(lv)}] = view.Reachable(graph.NodeID(lu), graph.NodeID(lv))
		}
	}
	fr.Compact()
	view = localGraph(f)
	for lu := int32(0); int(lu) < f.NumTotal(); lu++ {
		for lv := int32(0); int(lv) < f.NumTotal(); lv++ {
			p := pair{f.Global(lu), f.Global(lv)}
			if before[p] != view.Reachable(graph.NodeID(lu), graph.NodeID(lv)) {
				t.Fatalf("reachability %d->%d flipped across Compact", p.u, p.v)
			}
		}
	}
}
