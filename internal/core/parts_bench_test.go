package core

import (
	"testing"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/reachindex"
)

// partsShape is a benchmark deployment: four fragments of a graph at one
// of the benchmark's shapes, indexed at the default budget.
type partsShape struct {
	name string
	fr   *fragment.Fragmentation
}

// partsShapes builds reach_cut's shape — a 10,876-node, 40,000-edge
// power-law graph cut at random — and reach_local's — 16 power-law
// communities of 3,000 nodes and 12,000 edges, block-ordered, joined by a
// cross edge from one node in 200, cut contiguously.
func partsShapes(b *testing.B) []partsShape {
	cut := gen.PowerLaw(gen.Config{Nodes: 10876, Edges: 40000, Labels: []string{"A", "B", "C"}, Seed: 1})
	frCut, err := fragment.Random(cut, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	const comms, size = 16, 3000
	lb := graph.NewBuilder(comms * size)
	lb.AddNodes(comms*size, "A")
	for c := 0; c < comms; c++ {
		cg := gen.PowerLaw(gen.Config{Nodes: size, Edges: 4 * size, Seed: uint64(100 + c)})
		base := graph.NodeID(c * size)
		cg.Edges(func(u, v graph.NodeID) bool {
			lb.AddEdge(base+u, base+v)
			return true
		})
	}
	rng := gen.NewRNG(3)
	for i := 0; i < comms*size/200; i++ {
		u, v := rng.Intn(comms*size), rng.Intn(comms*size)
		for v/size == u/size {
			v = rng.Intn(comms * size)
		}
		lb.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	frLocal, err := fragment.Contiguous(lb.MustBuild(), 4)
	if err != nil {
		b.Fatal(err)
	}
	shapes := []partsShape{{"reach_cut", frCut}, {"reach_local", frLocal}}
	for _, sh := range shapes {
		sh.fr.EnableReachIndex(reachindex.DefaultBudget)
		sh.fr.WaitReachIndexes()
	}
	return shapes
}

var partsSink *Rows

// BenchmarkQueryParts times what a warm site computes per query beside
// its rows, on all four fragments of reach_cut's and reach_local's shapes;
// an op is one query. source is SourceOnlyReach; labels and search are
// TargetOnlyReach from the interval labels and from the one search back
// from t (NoFragmentIndex); qbr is DistQueryPart with l in 1..8, which
// searches back from t whatever the labels hold.
func BenchmarkQueryParts(b *testing.B) {
	for _, sh := range partsShapes(b) {
		frags := sh.fr.Fragments()
		n := sh.fr.Graph().NumNodes()
		rng := gen.NewRNG(2)
		type query struct {
			s, t graph.NodeID
			l    int
		}
		qs := make([]query, 256)
		for i := range qs {
			qs[i] = query{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 1 + rng.Intn(8)}
		}
		parts := []struct {
			name string
			part func(f *fragment.Fragment, q query) *Rows
		}{
			{"source", func(f *fragment.Fragment, q query) *Rows { return SourceOnlyReach(f, q.s, q.t) }},
			{"labels", func(f *fragment.Fragment, q query) *Rows { return TargetOnlyReach(f, q.t, nil) }},
			{"search", func(f *fragment.Fragment, q query) *Rows {
				return TargetOnlyReach(f, q.t, &Options{NoFragmentIndex: true})
			}},
			{"qbr", func(f *fragment.Fragment, q query) *Rows { return DistQueryPart(f, q.s, q.t, q.l) }},
		}
		for _, p := range parts {
			b.Run(sh.name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					q := qs[i%len(qs)]
					for _, f := range frags {
						partsSink = p.part(f, q)
					}
				}
			})
		}
	}
}
