package core

import (
	"slices"

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
		func(f *fragment.Fragment) *Rows { return LocalEvalReach(f, s, t, opt) },
		reachReplySize,
		func(partial []*Rows) { ans = SolveReach(partial, s) })
	return Result{Answer: ans, Report: run.Finish()}
}

// LocalEvalReach is procedure localEval, the per-site partial evaluation of
// Fig. 3 — Fi.rvset, the fragment's partial answer to qr(s, t), an
// unweighted Rows list consumed by SolveReach at the coordinator (or the
// reducer): for every in-node v of the fragment (plus s, if s is stored
// here) it determines which boundary nodes v can reach locally, yielding
// the Boolean equation
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
func LocalEvalReach(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *Rows {
	iset := isetOf(f, s)
	rv := newRows(len(iset), false)
	if len(iset) == 0 {
		return rv
	}
	ev := newLocalEval(f, t, opt)
	for _, v := range iset {
		if ev.opt.cancelled() {
			return nil
		}
		truth, vars, ok := ev.equation(v)
		if !ok {
			return nil
		}
		rv.add(f.Global(v), truthCons(truth), vars, nil)
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
	// alias holds the one variable of an alias equation.
	alias [1]graph.NodeID
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

// equation produces the equation of local node v, Xv = truth ∨ (∨ vars),
// by the cheapest route that applies; it reports false only when the BFS
// was cancelled. vars is read-only and valid until the next call: the
// caller copies it or only reads it.
func (ev *localEval) equation(v int32) (truth bool, vars []graph.NodeID, ok bool) {
	f, t, met := ev.f, ev.t, ev.met
	if f.Global(v) == t {
		// Xt is trivially true (t reaches itself). This must precede
		// aliasing: if t shares an SCC with other in-nodes, they may
		// alias to Xt, and Xt itself must never be an alias.
		met.ConstEqs++
		return true, nil, true
	}
	if rep := ev.repOf[ev.comp[v]]; rep != 0 {
		met.AliasEqs++
		ev.alias[0] = f.Global(rep - 1)
		return false, ev.alias[:], true
	}
	ev.repOf[ev.comp[v]] = v + 1
	if idx := ev.idx; idx != nil {
		if gvars, reachesT, ok := idx.EquationGlobal(v, ev.tLocal, ev.hasT); ok {
			if ev.hasT {
				// t appearing as a variable must contribute `true`
				// instead (lines 4-5 of localEval). The list holds each
				// boundary node at most once, so splice it out.
				if i := slices.Index(gvars, t); i >= 0 {
					reachesT = true
					gvars = slices.Concat(gvars[:i], gvars[i+1:])
				}
			}
			met.IndexedEqs++
			return reachesT, gvars, true
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
	vars  []graph.NodeID
	stamp int32
}

// from computes the equation of local node v for target t: which boundary
// nodes outside v's local SCC (comp) v reaches (vars, valid until the next
// call), and whether it reaches t. This is the one potentially
// long-running stretch of a local evaluation (the reachindex fast path is
// two lookups), so it polls opt.Cancel every few hundred dequeues and
// reports false when it fires.
func (b *cutBFS) from(f *fragment.Fragment, v int32, t graph.NodeID, comp []int32, opt *Options) (truth bool, vars []graph.NodeID, ok bool) {
	if b.seen == nil {
		b.seen = make([]int32, f.NumTotal())
	}
	b.stamp++
	vars = b.vars[:0]
	queue := append(b.queue[:0], v)
	b.seen[v] = b.stamp
	for head := 0; head < len(queue); head++ {
		if head&0xff == 0xff && opt.cancelled() {
			return false, nil, false
		}
		x := queue[head]
		if x != v { // v itself is never a disjunct of its own equation
			if g := f.Global(x); g == t {
				truth = true
				continue // reaching t locally closes this branch
			} else if f.IsBoundary(x) && comp[x] != comp[v] {
				// Stop at boundary nodes outside v's SCC: their own
				// equations continue the search. In-nodes inside v's
				// SCC are aliased to v's equation, so the BFS must
				// expand through them itself.
				vars = append(vars, g)
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
	b.queue, b.vars = queue, vars
	return truth, vars, true
}

// SourceOnlyReach returns a partial holding just the source equation of
// qr(s, t) on f: the frontier-cut BFS of localEval run from s alone,
// skipping the per-in-node work. It returns nil when s contributes no
// equation of its own — not stored on this fragment, stored only as a
// virtual node, or already an in-node (whose equation is part of the
// source-independent rvset). Together with LocalEvalReach(f, graph.None, t)
// it splits a fragment's batch answer into a per-target shared part and a
// per-source part; together with TargetOnlyReach it is the part of the
// answer that depends on the query at all, which is all a wire site ships
// to a coordinator that already holds the fragment's rows.
//
// nil is also returned when opt.Cancel fires mid-BFS; callers running
// under cooperative cancellation must re-check their cancel flag before
// treating nil as "no equation owed".
func SourceOnlyReach(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *Rows {
	ls, ok := f.Local(s)
	if !ok || f.IsVirtual(ls) || f.IsInNode(ls) {
		return nil
	}
	rv := newRows(1, false)
	if s == t {
		rv.add(t, 0, nil, nil)
		return rv
	}
	comp := f.LocalSCC()
	// Equation aliasing, as in localEval: when s shares a local SCC with an
	// in-node, the two reach exactly the same boundary nodes, so the
	// two-word alias Xs = Xv replaces a full BFS equation. The in-node's
	// own equation is always in the source-independent rvset.
	for _, v := range f.InNodes() {
		if comp[v] == comp[ls] {
			rv.add(s, NoConst, []graph.NodeID{f.Global(v)}, nil)
			return rv
		}
	}
	var bfs cutBFS
	truth, vars, ok := bfs.from(f, ls, t, comp, opt)
	if !ok {
		return nil
	}
	rv.add(s, truthCons(truth), vars, nil)
	return rv
}

// TargetOnlyReach returns what f's in-node equations gain from knowing the
// target: Xv = true for every in-node v that reaches t inside the fragment,
// Xt itself included when t is an in-node. Added to the fragment's rows —
// LocalRows(f), which leave t an ordinary node — it decides exactly what
// LocalEvalReach(f, graph.None, t) decides:
//
//   - sound: each equation states a path that exists in the fragment;
//   - complete: let an in-node v reach t locally and w be the last in-node
//     on the path. The rows chain Xv to Xw (every frontier cut stops at an
//     in-node that has its own row), and w reaches t with no in-node in
//     between, so w's own evaluation finds t and Xw = true is emitted here.
//     Where t is only a virtual node the rows already mention Xt, and the
//     fragment that stores t — of which t is then an in-node — emits it.
//
// Every member of a reaching SCC gets its equation, not just the SCC's
// representative: the rows may have been computed before a compaction
// renumbered the fragment and picked other representatives, and an
// equation per member is right under any choice.
//
// It returns nil when there is nothing to say — t is not a real node of f,
// or no in-node reaches it — and when opt.Cancel fires; callers running
// under cooperative cancellation re-check their flag, as for SourceOnlyReach.
func TargetOnlyReach(f *fragment.Fragment, t graph.NodeID, opt *Options) *Rows {
	if !f.HasLocal(t) {
		return nil
	}
	ev := newLocalEval(f, t, opt)
	reaches := make([]bool, f.NumTotal()) // per local SCC: its members reach t
	var rv *Rows
	for _, v := range f.InNodes() {
		if ev.opt.cancelled() {
			return nil
		}
		c := ev.comp[v]
		if ev.repOf[c] == 0 {
			// First in-node of its SCC (or t itself, which never becomes a
			// representative): its evaluation speaks for the members.
			truth, _, ok := ev.equation(v)
			if !ok {
				return nil
			}
			reaches[c] = reaches[c] || truth
		}
		if reaches[c] {
			if rv == nil {
				rv = new(Rows)
			}
			rv.add(f.Global(v), 0, nil, nil)
		}
	}
	return rv
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
