package fragment

import (
	"fmt"
	"strings"

	"distreach/internal/gen"
	"distreach/internal/graph"
)

// Partitioning strategies. The paper randomly partitions its graphs ("we
// randomly partitioned real-life and synthetic graphs G into a set F of
// fragments") and stresses that the algorithms' guarantees hold no matter
// how G is fragmented. Every strategy implements the Partitioner
// interface, so build-time fragmentation and live re-fragmentation go
// through one abstraction; the free functions (Random, Contiguous,
// EdgeCut) are wrappers. A live-inserted node has no edges yet, so
// whatever the strategy it goes to the least-loaded fragment.

// Partitioner chooses a node-to-fragment assignment. Implementations must
// be deterministic for a given configuration and graph state: sites
// holding independent replicas of a deployment re-run the same partitioner
// during a live rebalance and must all arrive at the same fragmentation.
type Partitioner interface {
	// Name identifies the strategy (the form ByName accepts).
	Name() string
	// Assign maps every node of g to a fragment in [0, k). Entries for
	// tombstoned (deleted) nodes are ignored by Build.
	Assign(g *graph.Graph, k int) ([]int, error)
}

// Partition fragments g with the given partitioner.
func Partition(g *graph.Graph, p Partitioner, k int) (*Fragmentation, error) {
	assign, err := p.Assign(g, k)
	if err != nil {
		return nil, err
	}
	return Build(g, assign, k)
}

// shipped builds every shipped strategy from a seed (the unseeded ones
// ignore it), in the order Names reports them.
func shipped(seed uint64) []Partitioner {
	return []Partitioner{RandomPartitioner{Seed: seed}, ContiguousPartitioner{}, EdgeCutPartitioner{Seed: seed}}
}

// Names lists the names ByName accepts; flag help strings and error
// messages are built from it.
func Names() []string {
	var names []string
	for _, p := range shipped(0) {
		names = append(names, p.Name())
	}
	return names
}

// ByName resolves a partitioner from its textual name (one of Names);
// seed parameterizes the seeded strategies. This is how CLI flags and
// rebalance wire frames select a strategy.
func ByName(name string, seed uint64) (Partitioner, error) {
	for _, p := range shipped(seed) {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fragment: unknown partitioner %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// leastLoaded is the placement of a live-inserted node: the fragment with
// the fewest real nodes, lowest index on ties (deterministic across
// replicas).
func leastLoaded(sizes []int) int {
	best := 0
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[best] {
			best = i
		}
	}
	return best
}

// RandomPartitioner assigns each node uniformly at random, rebalanced so
// fragment sizes differ by at most one node (the paper's size(F) =
// |G|/card(F) setup).
type RandomPartitioner struct{ Seed uint64 }

// Name implements Partitioner.
func (RandomPartitioner) Name() string { return "random" }

// Assign implements Partitioner.
func (p RandomPartitioner) Assign(g *graph.Graph, k int) ([]int, error) {
	n := g.NumNodes()
	rng := gen.NewRNG(p.Seed)
	perm := rng.Perm(n)
	assign := make([]int, n)
	for i, v := range perm {
		assign[v] = i % k // balanced random: permutation + round robin
	}
	return assign, nil
}

// ContiguousPartitioner assigns consecutive node IDs to the same fragment
// (node v goes to fragment v*k/n). Generators that emit
// locality-correlated IDs make this a cheap locality-aware baseline.
type ContiguousPartitioner struct{}

// Name implements Partitioner.
func (ContiguousPartitioner) Name() string { return "contiguous" }

// Assign implements Partitioner.
func (ContiguousPartitioner) Assign(g *graph.Graph, k int) ([]int, error) {
	n := g.NumNodes()
	assign := make([]int, n)
	for v := 0; v < n; v++ {
		f := v * k / n
		if f >= k {
			f = k - 1
		}
		assign[v] = f
	}
	return assign, nil
}

// EdgeCutPartitioner is the balance-aware greedy edge-cut strategy used by
// live rebalancing: nodes stream in BFS order from seeded random roots (so
// neighborhoods arrive consecutively) and each goes to the fragment
// holding most of its (in- and out-) neighbors, discounted by how full
// that fragment already is — the linear deterministic greedy (LDG)
// objective score(i) = |N(v) ∩ Fi| · (1 − size(Fi)/C). Fullness is
// measured in the paper's fragment-size metric (nodes + incident edges,
// the quantity |Fm| bounds), not node count alone, so an edge-dense hot
// region gets split across fragments instead of bloating one. EdgeCut
// thus minimizes both |Vf| (few cross edges) and |Fm| — exactly the two
// parameters the paper's guarantees are parameterized by.
type EdgeCutPartitioner struct{ Seed uint64 }

// Name implements Partitioner.
func (EdgeCutPartitioner) Name() string { return "edgecut" }

// Assign implements Partitioner.
func (p EdgeCutPartitioner) Assign(g *graph.Graph, k int) ([]int, error) {
	n := g.NumNodes()
	rng := gen.NewRNG(p.Seed)
	assign := make([]int, n)
	weight := make([]int, n) // 1 + degree: v's contribution to |Fi|
	totalWeight := 0
	for i := range assign {
		assign[i] = -1
		if !g.Deleted(graph.NodeID(i)) {
			weight[i] = 1 + g.OutDegree(graph.NodeID(i)) + g.InDegree(graph.NodeID(i))
			totalWeight += weight[i]
		}
	}
	capacity := float64(totalWeight)*1.1/float64(k) + 1
	sizes := make([]int, k)

	// BFS stream order over the undirected graph from seeded random roots:
	// when a node comes up, most of its neighborhood has just been placed,
	// which is what lets the LDG score see (and keep) community structure.
	order := make([]graph.NodeID, 0, n)
	seen := make([]bool, n)
	queue := make([]graph.NodeID, 0, n)
	for _, ri := range rng.Perm(n) {
		root := graph.NodeID(ri)
		if seen[root] || g.Deleted(root) {
			continue
		}
		seen[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			visit := func(w graph.NodeID) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
			for _, w := range g.Out(v) {
				visit(w)
			}
			for _, w := range g.In(v) {
				visit(w)
			}
		}
	}

	counts := make([]int, k)
	stamp := make([]int, k) // round tag so counts reset in O(deg), not O(k)
	round := 0
	for _, v := range order {
		round++
		tally := func(w graph.NodeID) {
			if f := assign[w]; f >= 0 {
				if stamp[f] != round {
					stamp[f] = round
					counts[f] = 0
				}
				counts[f]++
			}
		}
		for _, w := range g.Out(v) {
			tally(w)
		}
		for _, w := range g.In(v) {
			tally(w)
		}
		best, bestScore := -1, -1.0
		for i := 0; i < k; i++ {
			slack := 1 - float64(sizes[i])/capacity
			if slack < 0 {
				continue // fragment at capacity: balance forbids it
			}
			c := 0
			if stamp[i] == round {
				c = counts[i]
			}
			// +1 smooths the neighbor count so empty fragments with slack
			// still attract isolated nodes (pure balance fallback).
			score := float64(c+1) * slack
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			best = leastLoaded(sizes) // every fragment at capacity: balance wins
		}
		assign[v] = best
		sizes[best] += weight[v]
	}
	// Tombstoned slots still need a legal assignment value for Build's
	// bookkeeping path; park them on fragment 0 (Build ignores them).
	for v := 0; v < n; v++ {
		if assign[v] == -1 {
			assign[v] = 0
		}
	}
	return assign, nil
}

// Random partitions g into k fragments by assigning each node
// independently and uniformly at random, then rebalancing so fragment
// sizes differ by at most one node.
func Random(g *graph.Graph, k int, seed uint64) (*Fragmentation, error) {
	return Partition(g, RandomPartitioner{Seed: seed}, k)
}

// Contiguous partitions g into k fragments of consecutive node IDs.
func Contiguous(g *graph.Graph, k int) (*Fragmentation, error) {
	return Partition(g, ContiguousPartitioner{}, k)
}

// EdgeCut partitions g into k fragments with the balance-aware greedy
// edge-cut (LDG) strategy.
func EdgeCut(g *graph.Graph, k int, seed uint64) (*Fragmentation, error) {
	return Partition(g, EdgeCutPartitioner{Seed: seed}, k)
}
