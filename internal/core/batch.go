package core

import (
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Query is one reachability query endpoint pair for batch evaluation.
type Query struct {
	S, T graph.NodeID
}

// BatchResult is the outcome of a batched evaluation.
type BatchResult struct {
	Answers []bool
	Report  cluster.Report
}

// DisReachBatch evaluates a batch of reachability queries in a single
// round: the coordinator posts the whole batch at once, each site runs
// local evaluation for every query in parallel, and one reply per site
// carries all partial answers. The visit guarantee strengthens to one
// visit per site *per batch*: m queries cost the same number of site
// visits as one.
//
// Queries sharing a target t additionally share their in-node equations
// (they are independent of the source), so the per-site work for a batch
// of m queries against d distinct targets is the work of d single queries
// plus m source equations.
func DisReachBatch(cl *cluster.Cluster, fr *fragment.Fragmentation, qs []Query) BatchResult {
	run := cl.NewRun()
	res := BatchResult{Answers: make([]bool, len(qs))}
	if len(qs) == 0 {
		res.Report = run.Finish()
		return res
	}

	// Group queries by target; equal (s,t) pairs still solve individually
	// (cheap), but local evaluation runs once per (fragment, target).
	type group struct {
		t       graph.NodeID
		queries []int // indices into qs
	}
	var groups []*group
	byTarget := map[graph.NodeID]*group{}
	for i, q := range qs {
		gr, ok := byTarget[q.T]
		if !ok {
			gr = &group{t: q.T}
			byTarget[q.T] = gr
			groups = append(groups, gr)
		}
		gr.queries = append(gr.queries, i)
	}

	// A site's reply is one rvset per target group, in group order.
	threePhase(run, fr.Fragments(), querySize*len(qs),
		func(f *fragment.Fragment) []*ReachPartial {
			reply := make([]*ReachPartial, len(groups))
			for gi, gr := range groups {
				// The in-node pass runs once (s = None) and each source
				// stored at this site adds only its own equation.
				reply[gi] = LocalEvalReach(f, graph.None, gr.t, nil)
				for _, i := range gr.queries {
					reply[gi].Append(SourceOnlyReach(f, qs[i].S, gr.t, nil))
				}
			}
			return reply
		},
		func(f *fragment.Fragment, reply []*ReachPartial) (b int) {
			for _, rv := range reply {
				b += reachReplySize(f, rv)
			}
			return b
		},
		func(replies [][]*ReachPartial) {
			// One dependency graph per target group decides all its sources.
			ofGroup := make([]*ReachPartial, len(replies))
			for gi, gr := range groups {
				for site, reply := range replies {
					ofGroup[site] = reply[gi]
				}
				sys := assembleReach(ofGroup)
				for _, i := range gr.queries {
					res.Answers[i] = qs[i].S == gr.t || sys.Decide(qs[i].S)
				}
			}
		})
	res.Report = run.Finish()
	return res
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
func SourceOnlyReach(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *ReachPartial {
	ls, ok := f.Local(s)
	if !ok || f.IsVirtual(ls) || f.IsInNode(ls) {
		return nil
	}
	if s == t {
		return partialOf(reachEq{node: t, constTrue: true})
	}
	comp := f.LocalSCC()
	// Equation aliasing, as in localEval: when s shares a local SCC with an
	// in-node, the two reach exactly the same boundary nodes, so the
	// two-word alias Xs = Xv replaces a full BFS equation. The in-node's
	// own equation is always in the source-independent rvset.
	for _, v := range f.InNodes() {
		if comp[v] == comp[ls] {
			return partialOf(reachEq{node: s, vars: []graph.NodeID{f.Global(v)}})
		}
	}
	var bfs cutBFS
	eq, ok := bfs.from(f, ls, t, comp, opt)
	if !ok {
		return nil
	}
	return partialOf(eq)
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
func TargetOnlyReach(f *fragment.Fragment, t graph.NodeID, opt *Options) *ReachPartial {
	if !f.HasLocal(t) {
		return nil
	}
	ev := newLocalEval(f, t, opt)
	reaches := make([]bool, f.NumTotal()) // per local SCC: its members reach t
	var rv *ReachPartial
	for _, v := range f.InNodes() {
		if ev.opt.cancelled() {
			return nil
		}
		c := ev.comp[v]
		if ev.repOf[c] == 0 {
			// First in-node of its SCC (or t itself, which never becomes a
			// representative): its evaluation speaks for the members.
			eq, ok := ev.equation(v)
			if !ok {
				return nil
			}
			reaches[c] = reaches[c] || eq.constTrue
		}
		if reaches[c] {
			if rv == nil {
				rv = new(ReachPartial)
			}
			rv.add(reachEq{node: f.Global(v), constTrue: true})
		}
	}
	return rv
}
