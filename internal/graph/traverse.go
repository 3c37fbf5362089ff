package graph

import "distreach/internal/csr"

// This file contains the traversal primitives (BFS, DFS, reachability,
// unweighted shortest distance, strongly connected components) used by both
// the centralized baselines and the per-fragment local evaluation steps.

// Reachable reports whether t is reachable from s, using BFS.
func (g *Graph) Reachable(s, t NodeID) bool {
	if s == t {
		return true
	}
	seen := make([]bool, g.NumNodes())
	seen[s] = true
	queue := []NodeID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Out(v) {
			if w == t {
				return true
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// BFS runs a breadth-first search from s and calls visit(v, depth) for every
// reachable node, including s at depth 0. Traversal stops early if visit
// returns false.
func (g *Graph) BFS(s NodeID, visit func(v NodeID, depth int) bool) {
	seen := make([]bool, g.NumNodes())
	seen[s] = true
	type item struct {
		v NodeID
		d int
	}
	queue := []item{{s, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if !visit(it.v, it.d) {
			return
		}
		for _, w := range g.Out(it.v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, item{w, it.d + 1})
			}
		}
	}
}

// Descendants returns the set of nodes reachable from s (including s) as a
// boolean slice indexed by NodeID.
func (g *Graph) Descendants(s NodeID) []bool {
	seen := make([]bool, g.NumNodes())
	seen[s] = true
	stack := []NodeID{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Dist returns the length of the shortest path from s to t (number of
// edges), or -1 if t is unreachable from s. Edges are unweighted, so BFS
// computes exact distances.
func (g *Graph) Dist(s, t NodeID) int {
	if s == t {
		return 0
	}
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []NodeID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Out(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				if w == t {
					return int(dist[w])
				}
				queue = append(queue, w)
			}
		}
	}
	return -1
}

// DistancesFrom returns the BFS distance from s to every node, with -1 for
// unreachable nodes. If maxDepth >= 0 the search is pruned beyond that depth.
func (g *Graph) DistancesFrom(s NodeID, maxDepth int) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []NodeID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if maxDepth >= 0 && int(dist[v]) >= maxDepth {
			continue
		}
		for _, w := range g.Out(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// DFSPostorder performs an iterative depth-first search over the whole graph
// (restarting from every unvisited node in ID order) and returns the nodes
// in postorder.
func (g *Graph) DFSPostorder() []NodeID { return dfsPostorder(g.NumNodes(), g.Out) }

// dfsPostorder is DFSPostorder over nodes 0..n-1 with out-adjacency out.
func dfsPostorder[T ~int32](n int, out func(T) []T) []T {
	seen := make([]bool, n)
	post := make([]T, 0, n)
	type frame struct {
		v T
		i int // next out-edge index to explore
	}
	var stack []frame
	for root := T(0); int(root) < n; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if row := out(f.v); f.i < len(row) {
				w := row[f.i]
				f.i++
				if !seen[w] {
					seen[w] = true
					stack = append(stack, frame{w, 0})
				}
				continue
			}
			post = append(post, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	return post
}

// SCC computes g's strongly connected components; see SCCOf.
func (g *Graph) SCC() (comp []int32, n int) { return SCCOf(g.NumNodes(), g.Out) }

// SCCOf computes the strongly connected components of the graph with nodes
// 0..n-1 and out-adjacency out — a Graph's, or a fragment's over its local
// slots — by Kosaraju's algorithm. It returns comp, mapping each node to
// its component, and the number of components. Components are numbered in
// topological order of the condensation: an edge between two components
// goes from the lower ID to the higher. Kosaraju yields that order as it
// goes (the second pass starts from the node that finished last, which
// lies in a source component); an SCC algorithm that finds components
// sinks first (Tarjan's) would have to renumber them to keep it.
func SCCOf[T ~int32](n int, out func(T) []T) (comp []int32, nc int) {
	post := dfsPostorder(n, out)
	in := csr.Transpose(n, out)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var c int32
	var stack []T
	// Process in reverse postorder; each search of the reverse graph from
	// an unassigned root collects exactly one SCC.
	for i := len(post) - 1; i >= 0; i-- {
		root := post[i]
		if comp[root] >= 0 {
			continue
		}
		comp[root] = c
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range in.Row(int32(v)) {
				if comp[w] < 0 {
					comp[w] = c
					stack = append(stack, w)
				}
			}
		}
		c++
	}
	return comp, int(c)
}
