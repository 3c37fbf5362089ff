package core

import (
	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// The coordinator's side of the scheme, written once for every algorithm
// of the package: the driver that runs the three phases over a simulated
// cluster, and procedure evalDG — one dependency graph Gd per query, built
// from partial answers tagged with the site they came from, from which
// both the value of Xs and the set of sites that value depends on are read.
// The wire coordinator (internal/netsite) walks the cached weighted rows
// (LocalRows) from s instead, for reach and distance queries alike, and
// this graph is the reference its answers and Touched sets are checked
// against.

// threePhase runs the scheme of Section 2.2 once over every site:
//
//  1. the coordinator posts the query (postBytes on the wire) to each site;
//  2. every site runs eval on its fragment, in parallel, and replies with
//     its partial answer (size bytes on the wire);
//  3. the coordinator assembles the partials, indexed by site.
func threePhase[P any](run *cluster.Run, frags []*fragment.Fragment, postBytes int,
	eval func(*fragment.Fragment) P, size func(*fragment.Fragment, P) int, assemble func([]P)) {
	for i := range frags {
		run.Post(i, postBytes)
	}
	run.NetPhase(postBytes)

	partial := make([]P, len(frags))
	run.Parallel(func(site int) {
		partial[site] = eval(frags[site])
	})
	maxReply := 0
	for i, p := range partial {
		b := size(frags[i], p)
		run.Reply(i, b)
		if b > maxReply {
			maxReply = b
		}
	}
	run.NetPhase(maxReply)

	run.Sequential(func() { assemble(partial) })
}

// assembleReach builds the dependency graph of procedure evalDG from the
// partial answers of all fragments, partials[i] being site i's.
func assembleReach(partials []*Rows) *bes.System[graph.NodeID] {
	sys := bes.New[graph.NodeID]()
	for site, rv := range partials {
		rv.AddToSystemFrom(site, sys)
	}
	return sys
}

// SolveReach is procedure evalDG: it assembles partial answers from all
// fragments, weights ignored, and reports whether Xs holds.
func SolveReach(partials []*Rows, s graph.NodeID) bool {
	return assembleReach(partials).Decide(s)
}

// AssembleDist is procedure evalDGd: it builds the weighted dependency
// graph of the partial answers (partials[i] being site i's; nil entries
// are skipped) and runs Dijkstra from Xs. It returns the exact dist(s, t)
// when that is within the bound used during local evaluation, or bes.Inf,
// together with the sorted indices of the partials owning an equation in
// the dependency closure of Xs — the sites the answer depends on. The
// partials come from LocalEvalDist; an unweighted one is a caller's bug and
// panics rather than be read as distance 0.
func AssembleDist(partials []*Rows, s graph.NodeID) (int64, []int) {
	sys := bes.NewWeighted[graph.NodeID]()
	for site, rv := range partials {
		if rv == nil {
			continue
		}
		if !rv.weighted {
			panic("core: AssembleDist over an unweighted equation list")
		}
		for i := 0; i < rv.NumEqs(); i++ {
			node, cons, vars, ws := rv.Eq(i)
			sys.Claim(site, node)
			if cons != NoConst {
				sys.AddConst(node, int64(cons))
			}
			for j, v := range vars {
				sys.AddTerm(node, v, int64(ws[j]))
			}
		}
	}
	return sys.Solve(s)
}

// SolveDist is AssembleDist for callers that only want the distance.
func SolveDist(partials []*Rows, s graph.NodeID) int64 {
	d, _ := AssembleDist(partials, s)
	return d
}
