package core

import (
	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// DistResult is the outcome of a bounded reachability evaluation. Distance
// is the exact dist(s, t) whenever it is at most the bound l (the partial
// answers are pruned beyond l, so larger distances are reported as
// bes.Inf / unreachable-within-bound).
type DistResult struct {
	Answer   bool
	Distance int64 // exact if <= l; bes.Inf if no path within the bound
	Report   cluster.Report
}

// DisDist evaluates the bounded reachability query qbr(s, t, l): is
// dist(s, t) <= l? (algorithm disDist, Section 4). It has the same
// guarantees as DisReach: one visit per site, traffic in O(|Vf|²),
// and parallel local evaluation bounded by the largest fragment.
func DisDist(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID, l int) DistResult {
	run := cl.NewRun()
	if s == t {
		return DistResult{Answer: l >= 0, Distance: 0, Report: run.Finish()}
	}
	if l <= 0 {
		// No path of positive length fits a non-positive bound.
		return DistResult{Answer: false, Distance: bes.Inf, Report: run.Finish()}
	}
	var d int64
	threePhase(run, fr.Fragments(), querySize,
		func(f *fragment.Fragment) *Rows { return LocalEvalDist(f, s, t, l) },
		func(_ *fragment.Fragment, rv *Rows) int { return distWireSize(rv) },
		func(partial []*Rows) { d = SolveDist(partial, s) })
	return DistResult{Answer: d <= int64(l), Distance: d, Report: run.Finish()}
}

// LocalEvalDist runs procedure localEvald on one fragment — Fi.rvset of
// qbr(s, t, l), a weighted Rows list consumed by SolveDist: for every
// in-node v (plus s if local; pass s = graph.None for the in-node equations
// only) it computes the local BFS distances to the virtual nodes (and to t
// when t is stored here), keeping
//
//	Xv <= Xv' + dist(v, v')   for virtual v' with dist(v, v') < l,
//	Xv <= dist(v, t)          when t is reached locally within l.
//
// Terms at distance >= l cannot start a path of total length <= l unless
// they already end at t, matching the pruning in the paper.
func LocalEvalDist(f *fragment.Fragment, s, t graph.NodeID, l int) *Rows {
	iset := isetOf(f, s)
	rv := newRows(len(iset), true)
	var bfs cutDist
	for _, v := range iset {
		if f.Global(v) == t {
			// Xt is trivially 0 (dist(t, t) = 0); other equations may
			// reference it as a variable.
			rv.add(t, 0, nil, nil)
			continue
		}
		// Frontier cut (see localEval): a boundary node's own min-equation
		// continues the path, so the BFS emits Xg + d there and stops.
		bfs.from(f, v, t, l)
		rv.add(f.Global(v), bfs.cons, bfs.vars, bfs.ws)
	}
	return rv
}
