package core

import (
	"sync"

	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Session amortizes partial evaluation across queries, the direction the
// paper's conclusion sketches ("combine partial evaluation and incremental
// computation"). The key observation: for a fixed target t, the in-node
// equations Fi.rvset of every fragment are independent of the source s —
// only s's own equation differs between queries. A Session therefore
//
//   - caches, per target t, the rvsets of all fragments (computed once
//     with the usual one-visit-per-site round), and
//   - answers subsequent qr(s, t) queries for any s by visiting only the
//     site that stores s, shipping one equation.
//
// Invalidate drops cached state when fragments change; a subsequent query
// recomputes only the invalidated fragments.
type Session struct {
	cl *cluster.Cluster
	fr *fragment.Fragmentation

	mu    sync.Mutex
	cache map[graph.NodeID][]*ReachPartial // target -> per-fragment rvsets
}

// NewSession creates a session over a fixed deployment.
func NewSession(cl *cluster.Cluster, fr *fragment.Fragmentation) *Session {
	return &Session{cl: cl, fr: fr, cache: make(map[graph.NodeID][]*ReachPartial)}
}

// Reach answers qr(s, t). The first query for a target t costs one visit
// to every site; later queries for the same t cost one visit to s's site
// only (zero when s's equation is already in the cached rvset, i.e. when s
// is an in-node).
func (se *Session) Reach(s, t graph.NodeID) Result {
	run := se.cl.NewRun()
	if s == t {
		return Result{Answer: true, Report: run.Finish()}
	}
	frags := se.fr.Fragments()
	inNodeEqs := func(f *fragment.Fragment) *ReachPartial { return LocalEvalReach(f, graph.None, t, nil) }

	se.mu.Lock()
	tc := se.cache[t]
	se.mu.Unlock()

	if tc == nil {
		// Cold start: the usual round, except that what the coordinator
		// assembles is the cache entry — the in-node equations do not
		// mention s, so they are kept for reuse.
		threePhase(run, frags, querySize, inNodeEqs, reachReplySize, func(partial []*ReachPartial) { tc = partial })
		se.mu.Lock()
		se.cache[t] = tc
		se.mu.Unlock()
	}

	// visitOne accounts an extra round trip to a single site: the posted
	// query and a reply of the given size.
	visitOne := func(site, reply int) {
		run.Post(site, querySize)
		run.NetPhase(querySize)
		run.Reply(site, reply)
		run.NetPhase(reply)
	}

	// Refresh any fragments dropped by Invalidate.
	for i, rv := range tc {
		if rv == nil {
			tc[i] = inNodeEqs(frags[i])
			visitOne(i, reachReplySize(frags[i], tc[i]))
		}
	}

	// Source equation: only s's site works, and only when s is not already
	// an in-node (in-node equations are in the cached rvset).
	owner := se.fr.Owner(s)
	if owner < 0 {
		// s was deleted: nothing reaches anywhere from a tombstone.
		return Result{Answer: false, Report: run.Finish()}
	}
	var src *ReachPartial
	run.Sequential(func() { src = SourceOnlyReach(frags[owner], s, t, nil) })
	if src != nil {
		visitOne(owner, 5+4*len(src.at(0).vars))
	}

	var ans bool
	run.Sequential(func() { ans = SolveReach(append(tc[:len(tc):len(tc)], src), s) })
	return Result{Answer: ans, Report: run.Finish()}
}

// InsertEdge applies a live edge insertion to the session's fragmentation
// and invalidates the cached rvsets of exactly the dirtied fragments — the
// in-process twin of the wire path's Coordinator.Update followed by
// per-fragment cache eviction. The next query per cached target recomputes
// only those fragments.
func (se *Session) InsertEdge(u, v graph.NodeID) (dirty []int, changed bool, err error) {
	dirty, changed, err = se.fr.InsertEdge(u, v)
	se.invalidateAll(dirty)
	return dirty, changed, err
}

// DeleteEdge is InsertEdge for a live edge deletion.
func (se *Session) DeleteEdge(u, v graph.NodeID) (dirty []int, changed bool, err error) {
	dirty, changed, err = se.fr.DeleteEdge(u, v)
	se.invalidateAll(dirty)
	return dirty, changed, err
}

// InsertNode adds a node carrying label (placed by the fragmentation's
// partitioner) and invalidates the receiving fragment's cached rvsets.
func (se *Session) InsertNode(label string) (graph.NodeID, []int, error) {
	id, dirty, err := se.fr.InsertNode(label, -1)
	se.invalidateAll(dirty)
	return id, dirty, err
}

// DeleteNode removes node v, cascading to its incident edges, and
// invalidates every dirtied fragment's cached rvsets. Cached targets that
// mention v recompute against the node-less graph on their next query.
func (se *Session) DeleteNode(v graph.NodeID) (dirty []int, changed bool, err error) {
	dirty, changed, err = se.fr.DeleteNode(v)
	se.invalidateAll(dirty)
	se.mu.Lock()
	delete(se.cache, v) // a deleted target's rvsets are meaningless now
	se.mu.Unlock()
	return dirty, changed, err
}

// Apply runs a transactional mutation batch (fragment.Op) through the
// session, invalidating the union of dirtied fragments once.
func (se *Session) Apply(ops []fragment.Op) (fragment.ApplyResult, error) {
	res, err := se.fr.Apply(ops)
	se.invalidateAll(res.Dirty)
	for _, op := range ops {
		if op.Kind == fragment.OpDeleteNode {
			se.mu.Lock()
			delete(se.cache, op.U)
			se.mu.Unlock()
		}
	}
	return res, err
}

func (se *Session) invalidateAll(dirty []int) {
	for _, f := range dirty {
		se.Invalidate(f)
	}
}

// Invalidate drops the cached partial answers of one fragment (e.g. after
// its edges changed); every cached target refreshes just that fragment on
// its next query.
func (se *Session) Invalidate(fragmentID int) {
	se.mu.Lock()
	defer se.mu.Unlock()
	for _, tc := range se.cache {
		if fragmentID >= 0 && fragmentID < len(tc) {
			tc[fragmentID] = nil
		}
	}
}

// CachedTargets reports how many targets currently have cached rvsets.
func (se *Session) CachedTargets() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return len(se.cache)
}
