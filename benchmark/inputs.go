package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// Everything the program under test sees is generated here, from the seed:
// graphs, query pools with their expected answers, update streams and
// arrival schedules. The same seed gives the same inputs.

// Query classes.
const (
	classQR = iota
	classQBR
	classQRR
	numClasses
)

var classNames = [numClasses]string{"qr", "qbr", "qrr"}

var nodeLabels = []string{"A", "B", "C"}

// query is one pool entry. want is the answer on the pristine graph: the
// oracle of the static workloads, and the source of load.true_share.
type query struct {
	class int
	s, t  graph.NodeID
	l     int                  // qbr bound
	a     *automaton.Automaton // qrr automaton
	want  bool
}

// subRNG derives an independent generator for one named use of the seed.
func subRNG(seed uint64, tag string) *gen.RNG {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return gen.NewRNG(seed*0x9e3779b97f4a7c15 ^ h.Sum64())
}

// cutGraph is reach_cut's graph: a seeded power-law graph in the shape of
// p2p-Gnutella04 (10,876 nodes, about 40k edges at full size).
func cutGraph(seed uint64, nodes int) *graph.Graph {
	return gen.PowerLaw(gen.Config{Nodes: nodes, Edges: nodes * 40000 / 10876, Labels: nodeLabels, Seed: seed})
}

// localGraph is reach_local's graph: comms disjoint power-law communities
// of size nodes and 4*size edges each, with block-ordered IDs, joined by
// one cross edge from each of 0.5% of the nodes. A contiguous partition
// recovers whole communities, so |Vf| stays in the hundreds.
func localGraph(seed uint64, comms, size int) *graph.Graph {
	b := graph.NewBuilder(comms * size)
	for c := 0; c < comms; c++ {
		cg := gen.PowerLaw(gen.Config{Nodes: size, Edges: 4 * size, Labels: nodeLabels, Seed: seed*1000003 + uint64(c)})
		base := graph.NodeID(c * size)
		for v := 0; v < size; v++ {
			b.AddNode(cg.Label(graph.NodeID(v)))
		}
		cg.Edges(func(u, v graph.NodeID) bool {
			b.AddEdge(base+u, base+v)
			return true
		})
	}
	rng := subRNG(seed, "cross")
	n := comms * size
	for i := 0; i < (n+199)/200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		for v/size == u/size {
			v = rng.Intn(n)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.MustBuild()
}

// balancer accepts candidate queries until half the pool is true and half
// false, so every pool's true share is 50% by construction whatever the
// graph's own share is (uniform qbr and qrr candidates are under 10% true).
type balancer struct {
	pool              []query
	needTrue, needNot int
	seen              map[[3]int]bool
}

func newBalancer(n int) *balancer {
	return &balancer{needTrue: n / 2, needNot: n - n/2, seen: map[[3]int]bool{}}
}

func (b *balancer) full() bool { return b.needTrue == 0 && b.needNot == 0 }

// offer adds q when it is a new (s,t,l) and its polarity is still wanted.
func (b *balancer) offer(q query) {
	key := [3]int{int(q.s), int(q.t), q.l}
	if q.s == q.t || b.seen[key] {
		return
	}
	if q.want && b.needTrue > 0 {
		b.needTrue--
	} else if !q.want && b.needNot > 0 {
		b.needNot--
	} else {
		return
	}
	b.seen[key] = true
	b.pool = append(b.pool, q)
}

// perSource is how many pool entries share one source, so that one
// traversal of the oracle serves several candidates.
const perSource = 8

// fillFromSources runs gen once per random source until the pool is
// balanced; gen offers that source's candidates.
func (b *balancer) fillFromSources(g *graph.Graph, rng *gen.RNG, gen func(s graph.NodeID)) error {
	for tries := 0; !b.full(); tries++ {
		if tries > 100*(len(b.pool)+b.needTrue+b.needNot) {
			return fmt.Errorf("cannot balance the query pool: %d true and %d false answers still missing", b.needTrue, b.needNot)
		}
		gen(graph.NodeID(rng.Intn(g.NumNodes())))
	}
	return nil
}

// reachPool draws n distinct reach queries; pickT chooses a target for a
// source.
func reachPool(g *graph.Graph, rng *gen.RNG, n int, pickT func(s graph.NodeID) graph.NodeID) ([]query, error) {
	b := newBalancer(n)
	err := b.fillFromSources(g, rng, func(s graph.NodeID) {
		desc := g.Descendants(s)
		before := len(b.pool)
		for i := 0; i < 8*perSource && len(b.pool) < before+perSource; i++ {
			t := pickT(s)
			b.offer(query{class: classQR, s: s, t: t, want: desc[t]})
		}
	})
	return b.pool, err
}

// uniformTarget picks any node.
func uniformTarget(g *graph.Graph, rng *gen.RNG) func(graph.NodeID) graph.NodeID {
	return func(graph.NodeID) graph.NodeID { return graph.NodeID(rng.Intn(g.NumNodes())) }
}

// localTarget picks a node of the source's community nine times in ten.
func localTarget(g *graph.Graph, rng *gen.RNG, size int) func(graph.NodeID) graph.NodeID {
	return func(s graph.NodeID) graph.NodeID {
		if rng.Intn(10) == 0 {
			return graph.NodeID(rng.Intn(g.NumNodes()))
		}
		return graph.NodeID(int(s)/size*size + rng.Intn(size))
	}
}

// distPool draws n bounded-reachability queries with l in 1..8.
func distPool(g *graph.Graph, rng *gen.RNG, n int) ([]query, error) {
	b := newBalancer(n)
	err := b.fillFromSources(g, rng, func(s graph.NodeID) {
		dist := g.DistancesFrom(s, 8)
		before := len(b.pool)
		for i := 0; i < 32*perSource && len(b.pool) < before+perSource; i++ {
			t := graph.NodeID(rng.Intn(g.NumNodes()))
			l := 1 + rng.Intn(8)
			b.offer(query{class: classQBR, s: s, t: t, l: l, want: dist[t] >= 0 && int(dist[t]) <= l})
		}
	})
	return b.pool, err
}

// rpqPool draws n regular-reachability queries over random automata of 2
// to 5 states.
func rpqPool(g *graph.Graph, rng *gen.RNG, n int) ([]query, error) {
	b := newBalancer(n)
	err := b.fillFromSources(g, rng, func(s graph.NodeID) {
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		a := automaton.Random(rng, 2+rng.Intn(4), 4+rng.Intn(8), nodeLabels)
		b.offer(query{class: classQRR, s: s, t: t, a: a, want: automaton.Eval(g, s, t, a)})
	})
	return b.pool, err
}

// mixedPool interleaves n queries of each class: qr, qbr, qrr, qr, ...
func mixedPool(g *graph.Graph, rng *gen.RNG, n int) ([]query, error) {
	qr, err := reachPool(g, rng, n, uniformTarget(g, rng))
	if err != nil {
		return nil, err
	}
	qbr, err := distPool(g, rng, n)
	if err != nil {
		return nil, err
	}
	qrr, err := rpqPool(g, rng, n)
	if err != nil {
		return nil, err
	}
	pool := make([]query, 0, 3*n)
	for i := 0; i < n; i++ {
		pool = append(pool, qr[i], qbr[i], qrr[i])
	}
	return pool, nil
}

// arrange orders the pool for Zipf draws, where rank i is pool[i] and the
// ten hottest ranks carry almost half the traffic. The pool is shuffled and
// then dealt round-robin from eight piles — the source's quarter of the ID
// space (its fragment under a contiguous partition) times the expected
// answer — so whatever the seed, every run of eight ranks holds one true
// and one false query per fragment. Which pairs are hot still follows the
// seed; how the hot set is composed does not.
func arrange(pool []query, n int, rng *gen.RNG) []query {
	var piles [2 * numSites][]query
	for _, i := range rng.Perm(len(pool)) {
		q := pool[i]
		pile := int(q.s) * numSites / n * 2
		if q.want {
			pile++
		}
		piles[pile] = append(piles[pile], q)
	}
	out := make([]query, 0, len(pool))
	for len(out) < len(pool) {
		for i := range piles {
			if len(piles[i]) > 0 {
				out = append(out, piles[i][0])
				piles[i] = piles[i][1:]
			}
		}
	}
	return out
}

// trueShare reports the fraction of pool queries whose answer is true.
func trueShare(pool []query) float64 {
	n := 0
	for _, q := range pool {
		if q.want {
			n++
		}
	}
	return float64(n) / float64(len(pool))
}

// shortcutEdges finds n distinct edges u→v, absent from g, such that a path
// u→w→v exists. Inserting or deleting one dirties fragments and evicts
// cache entries but never changes reachability, so a static oracle stays
// valid under such writes. The sources take turns through the quarters of
// the ID space, so under a contiguous partition the writes dirty the
// fragments in turn, whatever the seed.
func shortcutEdges(g *graph.Graph, rng *gen.RNG, n int) ([][2]graph.NodeID, error) {
	out := make([][2]graph.NodeID, 0, n)
	seen := map[[2]graph.NodeID]bool{}
	quarter := g.NumNodes() / numSites
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("found only %d of %d shortcut edges", len(out), n)
		}
		u := graph.NodeID(len(out)%numSites*quarter + rng.Intn(quarter))
		if g.OutDegree(u) == 0 {
			continue
		}
		w := g.Out(u)[rng.Intn(g.OutDegree(u))]
		if g.OutDegree(w) == 0 {
			continue
		}
		v := g.Out(w)[rng.Intn(g.OutDegree(w))]
		e := [2]graph.NodeID{u, v}
		if u == v || w == u || w == v || g.HasEdge(u, v) || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out, nil
}

// shortcutOps turns shortcut edges into a write stream that alternates
// inserting an edge and deleting it again.
func shortcutOps(edges [][2]graph.NodeID) []fragment.Op {
	ops := make([]fragment.Op, 0, 2*len(edges))
	for _, e := range edges {
		ops = append(ops,
			fragment.Op{Kind: fragment.OpInsertEdge, U: e[0], V: e[1]},
			fragment.Op{Kind: fragment.OpDeleteEdge, U: e[0], V: e[1]})
	}
	return ops
}

// churnOps is mixed_churn's write stream: n ops alternating the insertion
// of a random edge and the deletion of a random edge of g. These do change
// answers; the LSN-replay oracle follows them.
func churnOps(g *graph.Graph, rng *gen.RNG, n int) []fragment.Op {
	ops := make([]fragment.Op, 0, n)
	for len(ops) < n {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		if len(ops)%2 == 0 {
			if v := graph.NodeID(rng.Intn(g.NumNodes())); v != u {
				ops = append(ops, fragment.Op{Kind: fragment.OpInsertEdge, U: u, V: v})
			}
		} else if d := g.OutDegree(u); d > 0 {
			ops = append(ops, fragment.Op{Kind: fragment.OpDeleteEdge, U: u, V: g.Out(u)[rng.Intn(d)]})
		}
	}
	return ops
}

// poissonSchedule lists the arrival offsets of an open-loop phase of the
// given rate and length: exponential gaps, -ln(1-U)/rate.
func poissonSchedule(rng *gen.RNG, rate float64, length time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(at * float64(time.Second))
		if d >= length {
			return out
		}
		out = append(out, d)
	}
}

// picker returns the draw of pool indices for one client or phase: uniform,
// or Zipf(skew) over the pool order when skew > 0.
func picker(rng *gen.RNG, n int, skew float64) func() int {
	if skew > 0 {
		return gen.NewZipf(rng, n, skew).Next
	}
	return func() int { return rng.Intn(n) }
}
