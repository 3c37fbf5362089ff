package netsite

import (
	"sync/atomic"
	"testing"

	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// rowsOf computes fragment i's boundary rows as its site ships them.
func rowsOf(fr *fragment.Fragmentation, i int) *siteRows {
	f := fr.Fragments()[i]
	return &siteRows{
		tag: rowsTag{fr.Instance(), f.Generation()},
		rv:  core.LocalEvalReach(f, graph.None, graph.None, nil),
	}
}

// reachParts is a site's query parts for a reach-only batch, as
// Site.handleBatch computes them: per query, s's equation where the site
// stores s, and with the first query naming a target the in-nodes that
// reach it.
func reachParts(f *fragment.Fragment, qs []BatchQuery) []*core.ReachPartial {
	parts := make([]*core.ReachPartial, len(qs))
	asked := make(map[graph.NodeID]bool)
	for j, q := range qs {
		parts[j] = core.SourceOnlyReach(f, q.S, q.T, nil)
		if !asked[q.T] {
			asked[q.T] = true
			if parts[j] == nil {
				parts[j] = new(core.ReachPartial)
			}
			parts[j].Append(core.TargetOnlyReach(f, q.T, nil))
		}
	}
	return parts
}

// replyBody encodes a reply body carrying the parts and, when rows is
// non-nil, the rows section.
func replyBody(tb testing.TB, parts []*core.ReachPartial, rows *siteRows) []byte {
	rep := batchReply{parts: make([][]byte, len(parts))}
	var err error
	for j, p := range parts {
		if p.NumEqs() > 0 {
			if rep.parts[j], err = p.MarshalBinary(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if rows != nil {
		rep.hasRows, rep.tag = true, rows.tag
		if rep.rows, err = rows.rv.MarshalBinary(); err != nil {
			tb.Fatal(err)
		}
	}
	return encodeBatchReply(nil, rep)
}

// BenchmarkWarmReachSolve is the coordinator's share of one warm anytime
// reach query at reach_cut's shape (power-law, 10,876 nodes, 40,000 edges,
// random 4-way cut, seed 1): the coordinator holds every site's rows and
// each reply is a canned rows-free body, so an op is the solver's whole
// per-query work — reset, a feed per reply until the round is decided, and
// finish. Replies arrive in site order.
func BenchmarkWarmReachSolve(b *testing.B) {
	const k = 4
	g := gen.PowerLaw(gen.Config{Nodes: 10876, Edges: 40000, Labels: []string{"A", "B", "C"}, Seed: 1})
	p, err := fragment.ByName("random", 1)
	if err != nil {
		b.Fatal(err)
	}
	assign, err := p.Assign(g, k)
	if err != nil {
		b.Fatal(err)
	}
	fr, err := fragment.Build(g, assign, k)
	if err != nil {
		b.Fatal(err)
	}
	co := &Coordinator{rows: make([]atomic.Pointer[siteRows], k)}
	for i := 0; i < k; i++ {
		co.rows[i].Store(rowsOf(fr, i))
	}
	type canned struct {
		qs     []BatchQuery
		bodies [][]byte
	}
	rng := gen.NewRNG(2)
	pool := make([]canned, 256)
	for i := range pool {
		s, t := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		for s == t {
			t = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		pool[i].qs = []BatchQuery{{Class: ClassReach, S: s, T: t}}
		for _, f := range fr.Fragments() {
			pool[i].bodies = append(pool[i].bodies, replyBody(b, reachParts(f, pool[i].qs), nil))
		}
	}
	widx, answers := []int{0}, make([]BatchAnswer, 1)
	solve := func(c canned) {
		sol := newBatchSolver(co, c.qs, true)
		sol.reset()
		for site := range co.rows {
			sol.held[site] = co.rows[site].Load()
		}
		for site, body := range c.bodies {
			decided, err := sol.feed(site, body)
			if err != nil {
				b.Fatal(err)
			}
			if decided {
				break
			}
		}
		if err := sol.finish(widx, answers); err != nil {
			b.Fatal(err)
		}
	}
	solve(pool[0]) // whatever the coordinator lays out once per state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(pool[i%len(pool)])
	}
}
