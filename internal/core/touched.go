package core

import (
	"distreach/internal/bes"
	"distreach/internal/graph"
)

// Touched-fragment analysis for answer-cache invalidation. The solved
// value of a query depends only on the equations in the dependency closure
// of the source variable Xs: starting from s, follow each equation's
// variables (boundary nodes) transitively. A fragment outside that closure
// cannot influence the answer — and, because an edge update always dirties
// the fragment storing the edge's source, it cannot influence the answer
// AFTER any sequence of single-edge updates either, unless one of those
// updates dirtied a closure fragment first:
//
// A new path enabled (or an old path destroyed) by an update must use the
// updated edge (x, y); the path's prefix up to the first updated edge
// existed at evaluation time, so s reached x then, so x's fragment is in
// the closure — and every update to (x, y) dirties x's fragment. Evicting
// cache entries whose touched set intersects an update's dirty set is
// therefore sound, while entries whose closure avoids the dirtied
// fragments keep serving hits.
//
// For qr and qbr the closure is read off the dependency graph that decided
// the query: every equation is claimed by the site it came from as it is
// added (AddToSystemFrom, AssembleDist), and bes reports the claimants of
// the closure of Xs (System.Sources, Weighted.Solve). The wire coordinator
// reads the set off its walk or distance search from s over the cached
// rows instead: for a reach query the same set, for a distance query one
// that contains it (internal/netsite, TestProbeMatchesEquationSystem).
// Touched sets are sorted site indices — equivalently fragment IDs.

// TouchedRPQ is the touched set of qrr(s, t, R): the (sorted) indices into
// partials owning a vector in the dependency closure of s; nq is the query
// automaton's state count (the variable key stride). Unlike the other two
// classes it does not read the system SolveRPQ built: that system's
// variables are (node, state) pairs, and a node whose vector came back
// empty — LocalEvalRPQ emits it precisely so this analysis sees the
// fragment — has no variable there at all. The closure is therefore walked
// over a second, node-granular graph (states collapsed), which only
// over-approximates.
// When s has no equation in any partial — LocalEvalRPQ emits one for every
// in-node and for a locally stored s, so this means the partials say
// nothing about s — every index is reported, the conservative tag. Nil
// partials are skipped.
func TouchedRPQ(partials []*RPQPartial, s graph.NodeID, nq int) []int {
	sys := bes.New[graph.NodeID]()
	all := make([]int, 0, len(partials))
	var nodes []graph.NodeID
	for i, rv := range partials {
		if rv == nil {
			continue
		}
		all = append(all, i)
		for _, eq := range rv.eqs {
			sys.Claim(i, eq.node)
			for _, e := range eq.entries {
				nodes = nodes[:0]
				for _, v := range e.vars {
					nodes = append(nodes, graph.NodeID(v/int64(nq)))
				}
				sys.Add(eq.node, false, nodes...)
			}
		}
	}
	if touched := sys.Sources(s); len(touched) > 0 {
		return touched
	}
	return all
}
