package core

import (
	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/bitset"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// rpqVar identifies the Boolean variable X(v,u): "node v matches automaton
// state u". Variables are keyed globally as node*|Vq|+state.
type rpqVar = int64

func rpqKey(v graph.NodeID, u, nq int) rpqVar { return int64(v)*int64(nq) + int64(u) }

// rpqEntry is one vector entry of an in-node: the Boolean formula for
// X(node, state), a disjunction of variables over virtual-node/state pairs
// plus an optional constant-true disjunct.
type rpqEntry struct {
	state     int
	constTrue bool
	vars      []rpqVar
}

type rpqEqs struct {
	node    graph.NodeID
	entries []rpqEntry
}

// RPQPartial is Fi.rvset for a regular reachability query: the vectors of
// Boolean formulas of one fragment's in-nodes. It is produced by
// LocalEvalRPQ at a site (or a mapper) and consumed by SolveRPQ at the
// coordinator (or the reducer).
type RPQPartial struct {
	eqs      []rpqEqs
	varSpace int // number of distinct (virtual, state) variables in scope
}

// WireSize follows the paper's accounting: O(|R|²·|Fi.I|·|Fi.O|) in the
// worst case — each in-node ships up to |Vq| entries, each encoded as the
// smaller of a bit vector over the fragment's (boundary node × state)
// variable space and an explicit variable list.
func (rv *RPQPartial) WireSize() int {
	dense := (rv.varSpace + 1 + 7) / 8
	n := 0
	for _, eq := range rv.eqs {
		n += 4
		for _, e := range eq.entries {
			sparse := 4 * len(e.vars)
			if sparse < dense {
				n += 3 + sparse
			} else {
				n += 3 + dense
			}
		}
	}
	return n
}

// SolveRPQ is procedure evalDGr: it assembles the partial answers of all
// fragments into one Boolean equation system and reports whether X(s, us)
// holds, i.e. whether s matches the start state of the query automaton.
func SolveRPQ(partials []*RPQPartial, s graph.NodeID, a *automaton.Automaton) bool {
	nq := a.NumStates()
	sys := bes.New[rpqVar]()
	for _, rv := range partials {
		if rv == nil {
			continue
		}
		for _, eq := range rv.eqs {
			for _, e := range eq.entries {
				sys.Add(rpqKey(eq.node, e.state, nq), e.constTrue, e.vars...)
			}
		}
	}
	return sys.Decide(rpqKey(s, automaton.Start, nq))
}

// DisRPQ evaluates the regular reachability query qrr(s, t, R) given the
// query automaton a = Gq(R) (algorithm disRPQ, Section 5). Guarantees: one
// visit per site, traffic in O(|R|²·|Vf|²), local evaluation in
// O(|Fm|·|R|²) per site in parallel, assembling in O(|R|²·|Vf|²).
func DisRPQ(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID, a *automaton.Automaton) Result {
	run := cl.NewRun()
	if s == t && a.AcceptsLabels(nil) {
		// The empty path from s to itself satisfies R (ε ∈ L(R)).
		return Result{Answer: true, Report: run.Finish()}
	}
	// Gq(R) is constructed at the coordinator and posted with the query;
	// evalDGr assembles one Boolean equation per (in-node, state) vector
	// entry.
	var ans bool
	threePhase(run, fr.Fragments(), a.EncodedSize()+querySize,
		func(f *fragment.Fragment) *RPQPartial { return LocalEvalRPQ(f, s, t, a) },
		func(_ *fragment.Fragment, rv *RPQPartial) int { return rv.WireSize() },
		func(partial []*RPQPartial) { ans = SolveRPQ(partial, s, a) })
	return Result{Answer: ans, Report: run.Finish()}
}

// LocalEvalRPQ computes the vectors Fi.rvset of procedure localEvalr. The
// recursion of cmpRvec/cmposeVec is realized as a reverse-topological sweep
// over the strongly connected components of the fragment-local product
// graph (fragment node × automaton state), which handles cyclic fragments
// exactly where the naive recursion of Fig. 7 would not terminate:
//
//   - product node (v, u) exists when v can match u — L(v) = Lq(u) for a
//     position state, v = s for Start, v = t for Final;
//   - edge (v,u) -> (w,u') when (v,w) is a fragment edge and (u,u') ∈ Eq;
//   - leaves: (b, u) for a boundary node b (virtual node or another
//     in-node — the frontier cut of localEval applies here too, since
//     in-node entries have their own equations) contributes variable
//     X(b,u); (t, Final) contributes constant true;
//   - the formula of an in-node entry (v, u) is the disjunction of the
//     leaf contributions reachable from it through interior nodes.
func LocalEvalRPQ(f *fragment.Fragment, s, t graph.NodeID, a *automaton.Automaton) *RPQPartial {
	nq := a.NumStates()
	total := f.NumTotal()

	// validMid reports whether (l, u) can appear as an intermediate or
	// frontier product node: a position state whose label matches. Start
	// is only ever a source; Final is only ever the constant (t, Final).
	validMid := func(l int32, u int) bool {
		return u != automaton.Start && u != automaton.Final && a.MatchesLabel(u, f.Label(l))
	}

	// Variable IDs for boundary frontier pairs (boundary node × position
	// state). The constant (t, Final) is not a variable.
	varID := make([]int32, total*nq)
	for i := range varID {
		varID[i] = -1
	}
	type varMeta struct {
		g graph.NodeID
		u int32
	}
	var vars []varMeta
	for l := int32(0); int(l) < total; l++ {
		if !f.IsBoundary(l) {
			continue
		}
		for u := 0; u < nq; u++ {
			if validMid(l, u) {
				varID[int(l)*nq+u] = int32(len(vars))
				vars = append(vars, varMeta{f.Global(l), int32(u)})
			}
		}
	}

	// Interior product nodes: non-boundary fragment nodes at compatible
	// position states.
	pid := make([]int32, total*nq)
	for i := range pid {
		pid[i] = -1
	}
	type pnode struct {
		l int32
		u int32
	}
	var pnodes []pnode
	for l := int32(0); int(l) < total; l++ {
		if f.IsBoundary(l) {
			continue
		}
		for u := 0; u < nq; u++ {
			if validMid(l, u) {
				pid[int(l)*nq+u] = int32(len(pnodes))
				pnodes = append(pnodes, pnode{l, int32(u)})
			}
		}
	}

	// Per-interior-node direct leaf contributions and interior edges.
	leafConst := make([]bool, len(pnodes))
	leafVars := make([]bitset.Set, len(pnodes))
	b := graph.NewBuilder(len(pnodes))
	b.AddNodes(len(pnodes), "")
	// expand distributes the successors of fragment node l at state u into
	// const / boundary-var / interior-edge contributions for product node i
	// (i < 0 means "collect into a caller-provided sink", used for source
	// entries below).
	expand := func(l int32, u int, onConst func(), onVar func(v int32), onEdge func(q int32)) {
		for _, w := range f.Out(l) {
			for _, u2 := range a.Next(u) {
				if u2 == automaton.Final {
					if f.Global(w) == t {
						onConst()
					}
					continue
				}
				if u2 == automaton.Start {
					continue // no transitions enter Start
				}
				if !a.MatchesLabel(u2, f.Label(w)) {
					continue
				}
				if f.IsBoundary(w) {
					onVar(varID[int(w)*nq+u2])
					continue
				}
				if q := pid[int(w)*nq+u2]; q >= 0 {
					onEdge(q)
				}
			}
		}
	}
	for i, p := range pnodes {
		i32 := int32(i)
		expand(p.l, int(p.u),
			func() { leafConst[i32] = true },
			func(v int32) {
				if leafVars[i32] == nil {
					leafVars[i32] = bitset.New(len(vars))
				}
				leafVars[i32].Set(int(v))
			},
			func(q int32) { b.AddEdge(graph.NodeID(i32), graph.NodeID(q)) },
		)
	}
	pg := b.MustBuild()

	// Reverse-topological sweep over the interior SCCs, accumulating
	// per-component formulas as (const, bitset-of-variables).
	comp, dag := pg.Condensation()
	nc := dag.NumNodes()
	constOf := make([]bool, nc)
	setOf := make([]bitset.Set, nc)
	for i := range pnodes {
		c := comp[i]
		if leafConst[i] {
			constOf[c] = true
		}
		if leafVars[i] != nil {
			if setOf[c] == nil {
				setOf[c] = bitset.New(len(vars))
			}
			setOf[c].Or(leafVars[i])
		}
	}
	for c := nc - 1; c >= 0; c-- {
		for _, d := range dag.Out(graph.NodeID(c)) {
			if constOf[d] {
				constOf[c] = true
			}
			if setOf[d] != nil {
				if setOf[c] == nil {
					setOf[c] = bitset.New(len(vars))
				}
				setOf[c].Or(setOf[d])
			}
		}
	}

	// Emit the vector of every in-node (plus s when stored here): each
	// in-node is expanded as a source even though it is a frontier for
	// other sources.
	iset := isetOf(f, s)
	rv := &RPQPartial{varSpace: len(vars)}
	entryVars := bitset.New(len(vars))
	for _, v := range iset {
		gv := f.Global(v)
		eq := rpqEqs{node: gv}
		for u := 0; u < nq; u++ {
			// The source pair itself must be a plausible match: a matching
			// position state, Start at s, or Final at t (constant true).
			switch {
			case u == automaton.Final:
				if gv == t {
					eq.entries = append(eq.entries, rpqEntry{state: u, constTrue: true})
				}
				continue
			case u == automaton.Start:
				if gv != s {
					continue
				}
			default:
				if !a.MatchesLabel(u, f.Label(v)) {
					continue
				}
			}
			entry := rpqEntry{state: u}
			entryVars.Reset()
			expand(v, u,
				func() { entry.constTrue = true },
				func(id int32) { entryVars.Set(int(id)) },
				func(q int32) {
					c := comp[q]
					if constOf[c] {
						entry.constTrue = true
					}
					if setOf[c] != nil {
						entryVars.Or(setOf[c])
					}
				},
			)
			entryVars.ForEach(func(i int) {
				entry.vars = append(entry.vars, rpqKey(vars[i].g, int(vars[i].u), nq))
			})
			if entry.constTrue || len(entry.vars) > 0 {
				eq.entries = append(eq.entries, entry)
			}
		}
		// Emit the vector even when every entry is empty: the equation's
		// presence records that this fragment evaluated the node, which the
		// touched-fragment analysis (TouchedRPQ) relies on for sound cache
		// invalidation under live updates.
		rv.eqs = append(rv.eqs, eq)
	}
	return rv
}
