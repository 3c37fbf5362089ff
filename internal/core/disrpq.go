package core

import (
	"cmp"
	"fmt"
	"slices"

	"distreach/internal/automaton"
	"distreach/internal/bitset"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// rpqKey is the key of the Boolean variable X(v, u), "node v matches
// automaton state u", among product variables: v·nq + u, a 32-bit NodeID
// while |V|·nq < 2^31. LocalEvalRPQ panics on a fragment past that rather
// than let keys wrap and collide; the wire coordinator and sites refuse
// such a query with an error first (CheckRPQKeys).
func rpqKey(v graph.NodeID, u, nq int) graph.NodeID { return v*graph.NodeID(nq) + graph.NodeID(u) }

// CheckRPQKeys refuses a qrr query whose product keys would not fit a
// 32-bit NodeID: a graph of n nodes and an automaton of nq states.
func CheckRPQKeys(n, nq int) error {
	if int64(n)*int64(nq) >= 1<<31 {
		return fmt.Errorf("core: %d nodes × %d automaton states is past the 2^31 product keys", n, nq)
	}
	return nil
}

// RPQWireSize follows the paper's accounting for f's qrr partial rv under
// automaton a: O(|R|²·|Fi.I|·|Fi.O|) in the worst case — 4 bytes per node
// with an equation, and per equation that says something the smaller of a
// bit vector over the fragment's (boundary node × state) variable space
// and an explicit variable list.
func RPQWireSize(f *fragment.Fragment, rv *Rows, a *automaton.Automaton) int {
	nq := a.NumStates()
	varSpace := 0
	rpqProduct(f, a, true, func(int32, int) { varSpace++ })
	dense := (varSpace + 1 + 7) / 8
	n, prev := 0, graph.NodeID(-1)
	for i := 0; i < rv.NumEqs(); i++ {
		key, cons, vars, _ := rv.Eq(i)
		if v := key / graph.NodeID(nq); v != prev {
			n, prev = n+4, v
		}
		if cons != NoConst || len(vars) > 0 {
			n += 3 + min(4*len(vars), dense)
		}
	}
	return n
}

// SolveRPQ is procedure evalDGr: it assembles the product rows of all
// fragments into one Boolean equation system, as SolveReach does, and
// reports whether X(s, Start) holds, i.e. whether s matches the start state
// of the query automaton. The wire coordinator answers with WalkRPQ
// instead; the two agree on every query (TestRPQPartialRoundTrip).
func SolveRPQ(partials []*Rows, s graph.NodeID, a *automaton.Automaton) bool {
	return assembleReach(partials).Decide(rpqKey(s, automaton.Start, a.NumStates()))
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
		func(f *fragment.Fragment) *Rows { return LocalEvalRPQ(f, s, t, a) },
		func(f *fragment.Fragment, rv *Rows) int { return RPQWireSize(f, rv, a) },
		func(partial []*Rows) { ans = SolveRPQ(partial, s, a) })
	return Result{Answer: ans, Report: run.Finish()}
}

// LocalEvalRPQ computes the vectors Fi.rvset of procedure localEvalr as
// product rows, heads ascending: one Boolean equation rpqKey(v, u) per
// (in-node or locally stored s, state) entry with a term or a constant,
// and (s, Start) even without, to say which fragment holds s. The
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
func LocalEvalRPQ(f *fragment.Fragment, s, t graph.NodeID, a *automaton.Automaton) *Rows {
	nq := a.NumStates()
	total := f.NumTotal()

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
	top := max(s, t) // every key of the part is s's, t's or a variable's
	rpqProduct(f, a, true, func(l int32, u int) {
		varID[int(l)*nq+u] = int32(len(vars))
		vars = append(vars, varMeta{f.Global(l), int32(u)})
		top = max(top, f.Global(l))
	})
	if err := CheckRPQKeys(int(top)+1, nq); err != nil {
		panic(err)
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
	rpqProduct(f, a, false, func(l int32, u int) {
		pid[int(l)*nq+u] = int32(len(pnodes))
		pnodes = append(pnodes, pnode{l, int32(u)})
	})

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

	// Emit the vector of every in-node (plus s when stored here), nodes
	// ascending: each in-node is expanded as a source even though it is a
	// frontier for other sources.
	iset := slices.Clone(isetOf(f, s))
	slices.SortFunc(iset, func(x, y int32) int { return cmp.Compare(f.Global(x), f.Global(y)) })
	rv := newRows(len(iset), false)
	entryVars := bitset.New(len(vars))
	var terms []graph.NodeID
	for _, v := range iset {
		gv := f.Global(v)
		for u := 0; u < nq; u++ {
			// The source pair itself must be a plausible match: a matching
			// position state, Start at s, or Final at t (constant true).
			switch {
			case u == automaton.Final:
				if gv == t {
					rv.add(rpqKey(gv, u, nq), 0, nil, nil)
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
			constTrue := false
			entryVars.Reset()
			expand(v, u,
				func() { constTrue = true },
				func(id int32) { entryVars.Set(int(id)) },
				func(q int32) {
					c := comp[q]
					if constOf[c] {
						constTrue = true
					}
					if setOf[c] != nil {
						entryVars.Or(setOf[c])
					}
				},
			)
			terms = terms[:0]
			entryVars.ForEach(func(i int) {
				terms = append(terms, rpqKey(vars[i].g, int(vars[i].u), nq))
			})
			if constTrue || len(terms) > 0 || u == automaton.Start {
				rv.add(rpqKey(gv, u, nq), truthCons(constTrue), terms, nil)
			}
		}
	}
	return rv
}

// rpqProduct calls fn for every product node (l, u) of f under a that can
// be an intermediate or frontier node — a position state matching l's label
// (Start is only a source, Final only the constant (t, Final)) — over f's
// boundary nodes (the variables) or its other nodes (the interior), ascending.
func rpqProduct(f *fragment.Fragment, a *automaton.Automaton, boundary bool, fn func(l int32, u int)) {
	for l := int32(0); int(l) < f.NumTotal(); l++ {
		if f.IsBoundary(l) != boundary {
			continue
		}
		for u := 0; u < a.NumStates(); u++ {
			if u != automaton.Start && u != automaton.Final && a.MatchesLabel(u, f.Label(l)) {
				fn(l, u)
			}
		}
	}
}
