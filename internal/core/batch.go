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
					if own := SourceOnlyReach(f, qs[i].S, gr.t, nil); own != nil {
						reply[gi].eqs = append(reply[gi].eqs, own.eqs...)
					}
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
// per-source part, which the wire batch reply ships deduplicated.
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
		return &ReachPartial{eqs: []reachEq{{node: t, constTrue: true}}}
	}
	comp := f.LocalSCC()
	// Equation aliasing, as in localEval: when s shares a local SCC with an
	// in-node, the two reach exactly the same boundary nodes, so the
	// two-word alias Xs = Xv replaces a full BFS equation. The in-node's
	// own equation is always in the source-independent rvset.
	for _, v := range f.InNodes() {
		if comp[v] == comp[ls] {
			return &ReachPartial{eqs: []reachEq{{node: s, vars: []graph.NodeID{f.Global(v)}}}}
		}
	}
	var bfs cutBFS
	eq, ok := bfs.from(f, ls, t, comp, opt)
	if !ok {
		return nil
	}
	return &ReachPartial{eqs: []reachEq{eq}}
}
