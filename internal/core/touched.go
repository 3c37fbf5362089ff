package core

import (
	"fmt"
	"slices"

	"distreach/internal/automaton"
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
// For qrr the closure is the walk of WalkRPQ over product rows, which
// answers the query too. Touched sets are sorted site indices —
// equivalently fragment IDs.

// WalkRPQ answers qrr(s, t, R) over product rows (LocalEvalRPQ; parts[i]
// is site i's, nil: none, each with heads ascending, CheckRPQPartial) with
// one walk from X(s, Start) along the equations' terms: the answer is
// whether the walk meets a constant. nq is the automaton's state count.
// It also returns the touched set: the sites owning an equation the walk
// expanded, plus, for each walked variable that no part defines, the owner
// of its node — a site with nothing to say about (v, u) says it only until
// an edge out of v changes, and that edge dirties owner(v). owner names a
// node's one owner, or -1 when it cannot; then, and when no part defines
// X(s, Start), every index of parts is touched, the conservative tag.
func WalkRPQ(parts []*Rows, s graph.NodeID, nq int, owner func(graph.NodeID) int) (bool, []int) {
	on := make([]bool, len(parts))
	start := rpqKey(s, automaton.Start, nq)
	seen := map[graph.NodeID]bool{start: true}
	stack := []graph.NodeID{start}
	answer, all := false, false
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		defined := false
		for i, rv := range parts {
			if rv == nil {
				continue
			}
			e, ok := slices.BinarySearch(rv.nodes, x)
			if !ok {
				continue
			}
			defined, on[i] = true, true
			_, cons, vars, _ := rv.Eq(e)
			answer = answer || cons != NoConst
			for _, y := range vars {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		if !defined {
			if o := owner(x / graph.NodeID(nq)); x != start && o >= 0 && o < len(on) {
				on[o] = true
			} else {
				all = true
			}
		}
	}
	touched := make([]int, 0, len(parts))
	for i, ok := range on {
		if ok || all {
			touched = append(touched, i)
		}
	}
	return answer, touched
}

// CheckRPQPartial refuses product rows WalkRPQ cannot search: heads not
// strictly ascending.
func CheckRPQPartial(rv *Rows) error {
	for i := 1; i < rv.NumEqs(); i++ {
		if rv.nodes[i] <= rv.nodes[i-1] {
			return fmt.Errorf("core: qrr partial head %d after %d", rv.nodes[i], rv.nodes[i-1])
		}
	}
	return nil
}
