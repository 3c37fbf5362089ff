package core

import (
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/reachindex"
)

// querySize is the wire size of a posted (bounded) reachability query: two
// node IDs plus a kind/bound word. The paper treats |qr(s,t)| as negligible.
const querySize = 12

// Result is the outcome of one distributed evaluation.
type Result struct {
	Answer bool
	Report cluster.Report
}

// reachEq is one Boolean equation Xv = constTrue ∨ (∨ Xv') produced by
// local evaluation: v is an in-node (or the source s), and the variables on
// the right-hand side are the virtual nodes of the fragment that v reaches
// locally.
type reachEq struct {
	node      graph.NodeID
	constTrue bool
	vars      []graph.NodeID
}

// ReachPartial is Fi.rvset: the partial answer of one fragment to a
// reachability query. It is produced by LocalEvalReach at a site (or a
// mapper) and consumed by SolveReach at the coordinator (or the reducer).
//
// The equations are stored flat — equation i is Xnodes[i] = truth[i] ∨
// (∨ vars[offs[i]:offs[i+1]]) — so a partial decoded off the wire occupies
// about its marshaled size (9 bytes an equation, 4 a disjunct) however many
// equations it has.
type ReachPartial struct {
	nodes []graph.NodeID
	truth []bool
	offs  []uint32 // len(nodes)+1 entries once an equation was added
	vars  []graph.NodeID
}

// partialOf builds a partial from equations.
func partialOf(eqs ...reachEq) *ReachPartial {
	rv := new(ReachPartial)
	for _, eq := range eqs {
		rv.add(eq)
	}
	return rv
}

// add appends one equation, copying its disjuncts.
func (rv *ReachPartial) add(eq reachEq) {
	if len(rv.offs) == 0 {
		rv.offs = append(rv.offs, 0)
	}
	rv.nodes = append(rv.nodes, eq.node)
	rv.truth = append(rv.truth, eq.constTrue)
	rv.vars = append(rv.vars, eq.vars...)
	rv.offs = append(rv.offs, uint32(len(rv.vars)))
}

// at returns equation i; its vars alias the partial's storage.
func (rv *ReachPartial) at(i int) reachEq {
	return reachEq{node: rv.nodes[i], constTrue: rv.truth[i], vars: rv.vars[rv.offs[i]:rv.offs[i+1]]}
}

// Eq returns equation i, Xnode = constTrue ∨ (∨ vars). vars aliases the
// partial's storage and must not be modified.
func (rv *ReachPartial) Eq(i int) (node graph.NodeID, constTrue bool, vars []graph.NodeID) {
	eq := rv.at(i)
	return eq.node, eq.constTrue, eq.vars
}

// Append adds the equations of more (nil: none) to the partial.
func (rv *ReachPartial) Append(more *ReachPartial) {
	for i := 0; i < more.NumEqs(); i++ {
		rv.add(more.at(i))
	}
}

// NumEqs reports the number of equations in the partial (none for nil).
func (rv *ReachPartial) NumEqs() int {
	if rv == nil {
		return 0
	}
	return len(rv.nodes)
}

// WireSize accounts the reply size of the partial answer for a fragment
// with the given number of boundary variables (|Fi.O| + |Fi.I|). Each
// equation carries the in-node ID plus its disjuncts, encoded as whichever
// is smaller: a presence bitmap over the fragment's boundary variables (the
// paper's "|Fi.O| bits" accounting) or an explicit variable list. Either
// way the total stays within the O(|Vf|²) guarantee.
func (rv *ReachPartial) WireSize(boundaryVars int) int {
	dense := (boundaryVars + 1 + 7) / 8
	n := 0
	for i := range rv.nodes {
		sparse := 4 * int(rv.offs[i+1]-rv.offs[i])
		if sparse < dense {
			n += 5 + sparse
		} else {
			n += 5 + dense
		}
	}
	return n
}

// DisReach evaluates the reachability query qr(s, t) over the fragmentation
// fr deployed on cl (algorithm disReach, Fig. 3). It visits each site
// exactly once, ships O(|Vf|²) bits in total, and runs local evaluation on
// all fragments in parallel.
func DisReach(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID, opt *Options) Result {
	run := cl.NewRun()
	if s == t {
		// dist(s, s) = 0; no communication needed.
		return Result{Answer: true, Report: run.Finish()}
	}
	var ans bool
	threePhase(run, fr.Fragments(), querySize,
		func(f *fragment.Fragment) *ReachPartial { return LocalEvalReach(f, s, t, opt) },
		reachReplySize,
		func(partial []*ReachPartial) { ans = SolveReach(partial, s) })
	return Result{Answer: ans, Report: run.Finish()}
}

// LocalEvalReach is procedure localEval, the per-site partial evaluation of
// Fig. 3: for every in-node v of the fragment (plus s, if s is stored here)
// it determines which boundary nodes v can reach locally, yielding the
// Boolean equation
// Xv = (t reached locally) ∨ (∨ Xv' over reached boundary nodes v').
// A boundary node equal to t contributes `true` rather than a variable
// (lines 4-5 of the procedure).
//
// The BFS applies a frontier cut: besides virtual nodes, it also stops
// expanding at the fragment's other in-nodes, emitting their variables
// instead. This is sound because every in-node has its own equation in the
// same rvset and the coordinator's equation system composes transitively;
// it keeps both the local work and the reply size near-linear in the
// fragment's boundary structure instead of |Fi.I|·|Fi| in the worst case
// (the paper's O(|Vf||Fm|) bound still applies).
//
// With s = t = graph.None the result is the fragment's in-node equations
// alone. The wire runtime ships LocalRows instead — the same cut at every
// boundary node, without aliasing, and weighted — with SourceOnlyReach and
// TargetOnlyReach for the part that depends on the query. A nil opt means
// defaults.
//
// When opt.Cancel fires mid-evaluation the partial is abandoned and nil is
// returned; callers running under cooperative cancellation must treat nil
// as "no reply owed".
func LocalEvalReach(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *ReachPartial {
	iset := isetOf(f, s)
	rv := &ReachPartial{
		nodes: make([]graph.NodeID, 0, len(iset)),
		truth: make([]bool, 0, len(iset)),
		offs:  make([]uint32, 1, len(iset)+1),
	}
	if len(iset) == 0 {
		return rv
	}
	ev := newLocalEval(f, t, opt)
	for _, v := range iset {
		if ev.opt.cancelled() {
			return nil
		}
		eq, ok := ev.equation(v)
		if !ok {
			return nil
		}
		rv.add(eq)
	}
	return rv
}

// localEval is the state of one local evaluation against target t: how the
// equation of a single node is produced, shared by the in-node pass and by
// TargetOnlyReach.
type localEval struct {
	f   *fragment.Fragment
	t   graph.NodeID
	opt *Options
	met *EvalMetrics
	// Equation aliasing: in-nodes in the same local SCC reach exactly the
	// same boundary nodes, so only one representative per SCC needs a full
	// equation; the rest ship the two-word alias Xv = Xrep. This keeps the
	// reply size near the size of the fragment's condensed boundary
	// structure on dense fragmentations.
	comp []int32
	// repOf maps SCC -> representative in-node, +1-encoded so the zeroed
	// slice means "none yet" (a map here dominates the indexed hot path).
	repOf []int32
	// Fragment reachability index: when one is installed (and not opted
	// out of), a representative's whole equation comes from two lookups —
	// the precomputed frontier-cut variable list and the interval-label
	// "reaches t locally" bit — instead of a BFS. Stale/undecided/over-
	// budget entries answer !ok and drop to the BFS, so an index
	// mid-rebuild only costs speed, never correctness.
	idx    *reachindex.Index
	tLocal int32
	hasT   bool
	// Fallback strategy: one frontier-cut BFS per representative.
	bfs cutBFS
}

func newLocalEval(f *fragment.Fragment, t graph.NodeID, opt *Options) *localEval {
	if opt == nil {
		opt = &Options{}
	}
	ev := &localEval{f: f, t: t, opt: opt, met: opt.Metrics, comp: f.LocalSCC(), repOf: make([]int32, f.NumTotal())}
	if ev.met == nil {
		ev.met = new(EvalMetrics) // counted, never read
	}
	if !opt.NoFragmentIndex {
		if ev.idx = f.ReachIndex(); ev.idx != nil {
			ev.tLocal, ev.hasT = f.Local(t)
		}
	}
	return ev
}

// equation produces local node v's equation by the cheapest route that
// applies; it reports false only when the BFS was cancelled.
func (ev *localEval) equation(v int32) (reachEq, bool) {
	f, t, met := ev.f, ev.t, ev.met
	if f.Global(v) == t {
		// Xt is trivially true (t reaches itself). This must precede
		// aliasing: if t shares an SCC with other in-nodes, they may
		// alias to Xt, and Xt itself must never be an alias.
		met.ConstEqs++
		return reachEq{node: t, constTrue: true}, true
	}
	if rep := ev.repOf[ev.comp[v]]; rep != 0 {
		met.AliasEqs++
		return reachEq{node: f.Global(v), vars: []graph.NodeID{f.Global(rep - 1)}}, true
	}
	ev.repOf[ev.comp[v]] = v + 1
	if idx := ev.idx; idx != nil {
		if gvars, reachesT, ok := idx.EquationGlobal(v, ev.tLocal, ev.hasT); ok {
			eq := reachEq{node: f.Global(v), constTrue: reachesT}
			if ev.hasT {
				// t appearing as a variable must contribute `true`
				// instead (lines 4-5 of localEval). The list holds each
				// boundary node at most once, so splice it out.
				for i, gv := range gvars {
					if gv == t {
						eq.constTrue = true
						spliced := make([]graph.NodeID, 0, len(gvars)-1)
						spliced = append(spliced, gvars[:i]...)
						spliced = append(spliced, gvars[i+1:]...)
						gvars = spliced
						break
					}
				}
			}
			// The index's own read-only list: the caller copies or only
			// reads equation bodies.
			eq.vars = gvars
			met.IndexedEqs++
			return eq, true
		}
		switch idx.Outcome(v) {
		case reachindex.OutcomeStale:
			met.StaleEqs++
		case reachindex.OutcomeOverBudget:
			met.OverBudgetEqs++
		}
	}
	met.BFSEqs++
	return ev.bfs.from(f, v, t, ev.comp, ev.opt)
}

// cutBFS is the frontier-cut BFS of localEval over the fragment-local
// adjacency, written once for the in-node pass and for SourceOnlyReach. Its
// scratch is reused across the sources of one evaluation — a stamped seen
// buffer instead of a reallocation per source — and allocated on first
// use, since a fully indexed evaluation never searches.
type cutBFS struct {
	seen  []int32 // stamp of the search that last reached the node
	queue []int32
	stamp int32
}

// from computes the equation of local node v for target t: which boundary
// nodes outside v's local SCC (comp) v reaches, and whether it reaches t.
// This is the one potentially long-running stretch of a local evaluation
// (the reachindex fast path is two lookups), so it polls opt.Cancel every
// few hundred dequeues and reports false when it fires.
func (b *cutBFS) from(f *fragment.Fragment, v int32, t graph.NodeID, comp []int32, opt *Options) (reachEq, bool) {
	if b.seen == nil {
		b.seen = make([]int32, f.NumTotal())
	}
	b.stamp++
	eq := reachEq{node: f.Global(v)}
	queue := append(b.queue[:0], v)
	b.seen[v] = b.stamp
	for head := 0; head < len(queue); head++ {
		if head&0xff == 0xff && opt.cancelled() {
			return reachEq{}, false
		}
		x := queue[head]
		if x != v { // v itself is never a disjunct of its own equation
			if g := f.Global(x); g == t {
				eq.constTrue = true
				continue // reaching t locally closes this branch
			} else if f.IsBoundary(x) && comp[x] != comp[v] {
				// Stop at boundary nodes outside v's SCC: their own
				// equations continue the search. In-nodes inside v's
				// SCC are aliased to v's equation, so the BFS must
				// expand through them itself.
				eq.vars = append(eq.vars, g)
				continue
			}
		}
		for _, w := range f.Out(x) {
			if b.seen[w] != b.stamp {
				b.seen[w] = b.stamp
				queue = append(queue, w)
			}
		}
	}
	b.queue = queue
	return eq, true
}

// isetOf returns the fragment's in-nodes plus the source s when s is stored
// locally (lines 1-2 of localEval).
func isetOf(f *fragment.Fragment, s graph.NodeID) []int32 {
	iset := f.InNodes()
	if ls, ok := f.Local(s); ok && !f.IsVirtual(ls) && !f.IsInNode(ls) {
		iset = append(append([]int32(nil), iset...), ls)
	}
	return iset
}
