package netsite

import (
	"sync/atomic"
	"testing"

	"distreach/internal/automaton"
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
		rv:  core.LocalRows(f),
	}
}

// queryParts is a site's query parts for a batch, as Site.handleBatch
// computes them: per reach query, s's equation where the site stores s,
// and with the first query naming a target the in-nodes that reach it; per
// distance query, core.DistQueryPart; per regex query, its product rows.
func queryParts(f *fragment.Fragment, qs []BatchQuery) []*core.Rows {
	parts := make([]*core.Rows, len(qs))
	asked := make(map[graph.NodeID]bool)
	for j, q := range qs {
		switch q.Class {
		case ClassDist:
			parts[j] = core.DistQueryPart(f, q.S, q.T, q.L)
			continue
		case ClassRPQ:
			parts[j] = core.LocalEvalRPQ(f, q.S, q.T, q.A)
			continue
		}
		part := core.SourceOnlyReach(f, q.S, q.T)
		if !asked[q.T] {
			asked[q.T] = true
			if part == nil {
				part = new(core.Rows)
			}
			part.Append(core.TargetOnlyReach(f, q.T, nil))
		}
		parts[j] = part
	}
	return parts
}

// replyBody encodes a reply body carrying the parts (nil or empty: nothing
// to say) and, when rows is non-nil, the rows section.
func replyBody(tb testing.TB, parts []*core.Rows, rows *siteRows) []byte {
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
		rep.rowsKind, rep.tag = rowsFull, rows.tag
		if rep.rows, err = rows.rv.MarshalBinary(); err != nil {
			tb.Fatal(err)
		}
	}
	return encodeBatchReply(nil, rep)
}

// feedBody is what a round does with one posted site's reply body: decode
// it, feed it to the solver and advance the walks. It reports whether every
// query is decided.
func feedBody(sol *batchSolver, site int, body []byte) (bool, error) {
	rep, err := decodeBatchReply(body)
	if err != nil {
		return false, err
	}
	if err := sol.feed(site, rep); err != nil {
		return false, err
	}
	return sol.advance(), nil
}

// cutDeployment is reach_cut's and mixed_churn's shape (power-law, 10,876
// nodes, 40,000 edges, random 4-way cut, seed 1) with a coordinator that
// holds every site's rows.
func cutDeployment(b *testing.B) (*fragment.Fragmentation, *graph.Graph, *Coordinator) {
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
	return fr, g, co
}

// canned is one query with each site's rows-free reply body.
type canned struct {
	qs     []BatchQuery
	bodies [][]byte
}

// warmSolve is the coordinator's whole per-query work on a warm round:
// reset, a feed per reply until the round is decided, and finish. Replies
// arrive in site order.
func warmSolve(b *testing.B, co *Coordinator, c canned, anytime bool) {
	sol := newBatchSolver(co, c.qs, anytime)
	sol.reset()
	for site := range co.rows {
		sol.held[site] = co.rows[site].Load()
	}
	for site, body := range c.bodies {
		decided, err := feedBody(sol, site, body)
		if err != nil {
			b.Fatal(err)
		}
		if decided {
			break
		}
	}
	if err := sol.finish([]int{0}, make([]BatchAnswer, 1)); err != nil {
		b.Fatal(err)
	}
}

// cannedPool draws n queries of one class between distinct random nodes
// and renders every site's reply to each.
func cannedPool(b *testing.B, fr *fragment.Fragmentation, g *graph.Graph, n int, q func(rng *gen.RNG, s, t graph.NodeID) BatchQuery) []canned {
	rng := gen.NewRNG(2)
	pool := make([]canned, n)
	for i := range pool {
		s, t := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		for s == t {
			t = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		pool[i].qs = []BatchQuery{q(rng, s, t)}
		for _, f := range fr.Fragments() {
			pool[i].bodies = append(pool[i].bodies, replyBody(b, queryParts(f, pool[i].qs), nil))
		}
	}
	return pool
}

// BenchmarkWarmReachSolve is the coordinator's share of one warm anytime
// reach query at reach_cut's shape: the coordinator holds every site's rows
// and each reply is a canned rows-free body, so an op is warmSolve.
func BenchmarkWarmReachSolve(b *testing.B) {
	fr, g, co := cutDeployment(b)
	pool := cannedPool(b, fr, g, 256, func(_ *gen.RNG, s, t graph.NodeID) BatchQuery {
		return BatchQuery{Class: ClassReach, S: s, T: t}
	})
	warmSolve(b, co, pool[0], true) // whatever the coordinator lays out once per state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmSolve(b, co, pool[i%len(pool)], true)
	}
}

// distSink keeps the compiler from dropping the solve it times.
var distSink int64

// BenchmarkWarmDistSolve is the coordinator's share of one qbr(s, t, l),
// l drawn from 1..8 as mixed_churn draws it, at mixed_churn's shape (the
// reach_cut graph). "boundary" is a warm round: canned query parts and the
// search over the held rows. "full" is what the coordinator did before the
// rows served qbr: decode every site's full LocalEvalDist partial and run
// core.AssembleDist on them.
func BenchmarkWarmDistSolve(b *testing.B) {
	fr, g, co := cutDeployment(b)
	pool := cannedPool(b, fr, g, 256, func(rng *gen.RNG, s, t graph.NodeID) BatchQuery {
		return BatchQuery{Class: ClassDist, S: s, T: t, L: 1 + rng.Intn(8)}
	})
	b.Run("boundary", func(b *testing.B) {
		warmSolve(b, co, pool[0], false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warmSolve(b, co, pool[i%len(pool)], false)
		}
	})
	b.Run("full", func(b *testing.B) {
		full := make([][][]byte, 32) // per query, per site: the encoded partial
		for i := range full {
			q := pool[i].qs[0]
			for _, f := range fr.Fragments() {
				enc, err := core.LocalEvalDist(f, q.S, q.T, q.L).MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				full[i] = append(full[i], enc)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encs := full[i%len(full)]
			partials := make([]*core.Rows, len(encs))
			for site, enc := range encs {
				partials[site] = new(core.Rows)
				if err := partials[site].UnmarshalBinary(enc); err != nil {
					b.Fatal(err)
				}
			}
			distSink, _ = core.AssembleDist(partials, pool[i%len(full)].qs[0].S)
		}
	})
}

// BenchmarkSolveRPQWire is the coordinator's share of one qrr(s, t, R) at
// reach_cut's shape, with automata drawn as mixed_churn draws them: decode
// the four sites' product rows, walk them from (s, Start) and read Touched
// off the walk and the held rows (an op is warmSolve). It reports the parts'
// bytes per query.
func BenchmarkSolveRPQWire(b *testing.B) {
	fr, g, co := cutDeployment(b)
	pool := cannedPool(b, fr, g, 16, func(rng *gen.RNG, s, t graph.NodeID) BatchQuery {
		return BatchQuery{Class: ClassRPQ, S: s, T: t, A: automaton.Random(rng, 2+rng.Intn(4), 4+rng.Intn(8), []string{"A", "B", "C"})}
	})
	bytes := 0
	for _, c := range pool {
		for _, body := range c.bodies {
			bytes += len(body)
		}
	}
	warmSolve(b, co, pool[0], false) // whatever the coordinator lays out once per state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmSolve(b, co, pool[i%len(pool)], false)
	}
	b.ReportMetric(float64(bytes)/float64(len(pool)), "partB/query")
}
