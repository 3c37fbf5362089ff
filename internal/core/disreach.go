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

// DisReach evaluates the reachability query qr(s, t) over the fragmentation
// fr deployed on cl (algorithm disReach, Fig. 3). It visits each site
// exactly once, ships O(|Vf|²) bits in total, and runs local evaluation on
// all fragments in parallel.
func DisReach(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID) Result {
	run := cl.NewRun()
	if s == t {
		// dist(s, s) = 0; no communication needed.
		return Result{Answer: true, Report: run.Finish()}
	}
	var ans bool
	threePhase(run, fr.Fragments(), querySize,
		func(f *fragment.Fragment) *Rows { return LocalEvalReach(f, s, t, nil) },
		ReachWireSize,
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
// TargetOnlyReach for the part that depends on the query. No option
// changes what it computes: opt is read by nothing.
func LocalEvalReach(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *Rows {
	iset := isetOf(f, s)
	rv := newRows(len(iset), false)
	if len(iset) == 0 {
		return rv
	}
	ev := newLocalEval(f, t)
	for _, v := range iset {
		truth, vars := ev.equation(v)
		rv.add(f.Global(v), truthCons(truth), vars, nil)
	}
	return rv
}

// localEval is the state of one local evaluation against target t: how the
// equation of a single node is produced.
type localEval struct {
	f *fragment.Fragment
	t graph.NodeID
	// Equation aliasing: in-nodes in the same local SCC reach exactly the
	// same boundary nodes, so only one representative per SCC needs a full
	// equation; the rest ship the two-word alias Xv = Xrep. This keeps the
	// reply size near the size of the fragment's condensed boundary
	// structure on dense fragmentations.
	comp []int32
	// repOf maps SCC -> representative in-node, +1-encoded so the zeroed
	// slice means "none yet".
	repOf []int32
	bfs   cutBFS
	// alias holds the one variable of an alias equation.
	alias [1]graph.NodeID
}

func newLocalEval(f *fragment.Fragment, t graph.NodeID) *localEval {
	return &localEval{f: f, t: t, comp: f.LocalSCC(), repOf: make([]int32, f.NumTotal())}
}

// equation produces the equation of local node v, Xv = truth ∨ (∨ vars):
// an alias when an earlier in-node of v's SCC has one, else a frontier-cut
// BFS. vars is read-only and valid until the next call: the caller copies
// it or only reads it.
func (ev *localEval) equation(v int32) (truth bool, vars []graph.NodeID) {
	f, t := ev.f, ev.t
	if f.Global(v) == t {
		// Xt is trivially true (t reaches itself). This must precede
		// aliasing: if t shares an SCC with other in-nodes, they may
		// alias to Xt, and Xt itself must never be an alias.
		return true, nil
	}
	if rep := ev.repOf[ev.comp[v]]; rep != 0 {
		ev.alias[0] = f.Global(rep - 1)
		return false, ev.alias[:]
	}
	ev.repOf[ev.comp[v]] = v + 1
	return ev.bfs.from(f, v, t, ev.comp)
}

// cutBFS is the frontier-cut BFS of localEval over the fragment-local
// adjacency, written once for the in-node pass, SourceOnlyReach and
// TargetOnlyReach's fallback. Its scratch is reused across the sources of
// one evaluation — a stamped seen buffer instead of a reallocation per
// source — and allocated on first use, since an evaluation the index
// answers never searches.
type cutBFS struct {
	seen  []int32 // stamp of the search that last reached the node
	queue []int32
	vars  []graph.NodeID
	stamp int32
}

// from computes the equation of local node v for target t: which boundary
// nodes outside v's local SCC (comp) v reaches (vars, valid until the next
// call), and whether it reaches t.
func (b *cutBFS) from(f *fragment.Fragment, v int32, t graph.NodeID, comp []int32) (truth bool, vars []graph.NodeID) {
	if b.seen == nil {
		b.seen = make([]int32, f.NumTotal())
	}
	b.stamp++
	vars = b.vars[:0]
	queue := append(b.queue[:0], v)
	b.seen[v] = b.stamp
	for head := 0; head < len(queue); head++ {
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
	return truth, vars
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
func SourceOnlyReach(f *fragment.Fragment, s, t graph.NodeID) *Rows {
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
	truth, vars := bfs.from(f, ls, t, comp)
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
// The one bit per in-node SCC comes from the fragment's reachability index
// (full local reachability, which only adds true paths) unless opt says
// NoFragmentIndex or the labels cannot decide it; then from the SCC's
// frontier-cut BFS. Every member of a reaching SCC gets its equation, not
// just one: the rows may have been computed before a compaction renumbered
// the fragment and picked other representatives, and an equation per
// member is right under any choice.
//
// It returns nil when there is nothing to say: t is not a real node of f,
// or no in-node reaches it.
func TargetOnlyReach(f *fragment.Fragment, t graph.NodeID, opt *Options) *Rows {
	lt, ok := f.Local(t)
	if !ok || f.IsVirtual(lt) {
		return nil
	}
	var probe fragment.IndexProbe
	if opt == nil || !opt.NoFragmentIndex {
		probe = f.IndexProbe()
	}
	comp := f.LocalSCC()
	// Per local SCC, once its first in-node is evaluated: whether its
	// members reach t.
	evaluated := make([]bool, f.NumTotal())
	reaches := make([]bool, f.NumTotal())
	var bfs cutBFS
	var rv *Rows
	for _, v := range f.InNodes() {
		c := comp[v]
		if !evaluated[c] {
			evaluated[c] = true
			reached := v == lt
			if !reached {
				var out reachindex.Outcome
				reached, out = probe.Reaches(v, lt)
				opt.count(out)
				if out != reachindex.OutcomeHit {
					reached, _ = bfs.from(f, v, t, comp)
				}
			}
			reaches[c] = reached
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
