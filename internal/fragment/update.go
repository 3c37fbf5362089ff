package fragment

import (
	"fmt"
	"sort"

	"distreach/internal/graph"
)

// Live updates. The paper's conclusion sketches combining partial
// evaluation with incremental evaluation so a changing graph does not
// force recomputation from scratch; the precondition is a fragmentation
// that can change at all. Originally only the edge set was live; the
// online-rebalancing work made the node set live too, and turned single
// mutations into transactional batches: Apply takes a sequence of ops,
// applies them atomically under one write lock (ops are pre-validated, so
// a rejected batch changes nothing), and reports one unioned dirty set —
// the fragments whose partial answers (rows) may differ after the batch:
//
//   - an internal edge dirties only the fragment storing it;
//   - a cross edge dirties its source fragment (adjacency and virtual
//     nodes change) and, when the target's in-node status flips, the
//     target fragment too (its in-node set, hence its equation set,
//     changes);
//   - a node insertion dirties the fragment that receives the node;
//   - a node deletion cascades to its incident edges (dirtying as above)
//     and dirties the fragment that stored the node.
//
// The dirty set drives invalidation everywhere: the gateway's answer cache
// evicts exactly the keys whose evaluation touched a dirtied fragment
// (core/touched.go argues why "the edge's source fragment is always dirty"
// makes that sound), the reachability indexes of dirtied fragments are
// rebuilt (each mutation of a fragment's adjacency or slots retired its
// labels, with the rest of its derived state, through dropDerived), and —
// the third consumer — every dirtied fragment's Generation
// is bumped before the write lock is released. The wire coordinator's
// cached boundary rows are keyed by (Fragmentation.Instance, Generation),
// which a site compares under its read lock on every query, so there is
// no invalidation message to lose: a writer the coordinator never heard of
// (a second gateway, a direct InsertEdge, a replayed log) invalidates just
// as well as its own.
//
// All mutations below write through the fragments' overlay storage
// (idIndex patches, csr.Store overlay rows); the flat bases are only
// rewritten by compact().

// OpKind selects the mutation an Op performs.
type OpKind byte

// The four mutation kinds. The byte values double as the wire encoding of
// the multi-op update frame.
const (
	OpInsertEdge OpKind = 'i'
	OpDeleteEdge OpKind = 'd'
	OpInsertNode OpKind = 'n'
	OpDeleteNode OpKind = 'r'
)

// Op is one mutation of a transactional update batch.
type Op struct {
	Kind OpKind
	// U, V are the edge endpoints for OpInsertEdge/OpDeleteEdge; U is the
	// node for OpDeleteNode.
	U, V graph.NodeID
	// Label is the new node's label for OpInsertNode.
	Label string
	// Frag pins the new node's fragment for OpInsertNode; -1 lets the
	// fragmentation's partitioner place it (balance-aware by default).
	Frag int
}

// ApplyResult reports the effect of one update batch.
type ApplyResult struct {
	// Changed is false when every op was a no-op (inserting existing
	// edges, deleting missing ones, deleting already-deleted nodes).
	Changed bool
	// Dirty lists the fragments whose partial answers may have changed,
	// sorted ascending and deduplicated across the whole batch.
	Dirty []int
	// NewIDs holds the ID assigned to each OpInsertNode, in op order.
	NewIDs []graph.NodeID
}

// Apply runs a batch of mutations atomically: the whole batch is validated
// first (a rejected batch leaves the fragmentation untouched), then applied
// under the write lock readers exclude with RLock, so no query ever
// observes a half-applied batch. Safe for concurrent use with readers
// holding RLock.
//
// Validation is conservative about node reuse: ops may only reference
// nodes that are live when the batch starts, so an edge op cannot target a
// node inserted earlier in the same batch (its ID is not known to the
// caller anyway — it is reported in NewIDs).
func (fr *Fragmentation) Apply(ops []Op) (ApplyResult, error) { return fr.applyAt(0, ops) }

// applyAt is Apply for the sequenced batch lsn (0: unsequenced): the LSN is
// recorded under the batch's own write lock, rejected or not — see LSN.
func (fr *Fragmentation) applyAt(lsn uint64, ops []Op) (ApplyResult, error) {
	res, err := fr.applyLocked(lsn, ops)
	// Kick asynchronous reachability-index rebuilds for the dirtied
	// fragments, outside the write lock (builders take the read lock).
	// fr.frags is never reassigned after Build, so indexing it unlocked
	// is safe.
	if err == nil && res.Changed && fr.idxBudget.Load() > 0 {
		for _, fi := range res.Dirty {
			fr.rebuildReachIndexAsync(fr.frags[fi])
		}
	}
	return res, err
}

// DefaultOverlayLimit is the per-fragment overlay-entry threshold past
// which an update batch folds the overlays back into the flat CSR base
// before releasing the write lock. Without it, a long-lived site under
// churn grows its overlays unboundedly between epoch swaps (compaction
// otherwise only runs at rebalance/checkpoint/snapshot points).
const DefaultOverlayLimit = 4096

// SetOverlayLimit overrides the overlay auto-compaction threshold: n > 0
// sets the entry limit, n == 0 restores DefaultOverlayLimit, n < 0
// disables auto-compaction entirely.
func (fr *Fragmentation) SetOverlayLimit(n int) {
	fr.mu.Lock()
	fr.overlayLim = n
	fr.mu.Unlock()
}

// overlayLimitLocked resolves the effective threshold (<= 0: disabled).
func (fr *Fragmentation) overlayLimitLocked() int {
	switch {
	case fr.overlayLim > 0:
		return fr.overlayLim
	case fr.overlayLim < 0:
		return 0
	default:
		return DefaultOverlayLimit
	}
}

func (fr *Fragmentation) applyLocked(lsn uint64, ops []Op) (ApplyResult, error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if lsn != 0 {
		fr.lsn = lsn
	}
	if err := fr.validateOpsLocked(ops); err != nil {
		return ApplyResult{}, err
	}
	var res ApplyResult
	dirty := make(map[int]bool)
	for _, op := range ops {
		switch op.Kind {
		case OpInsertEdge:
			d, changed := fr.insertEdgeLocked(op.U, op.V)
			res.Changed = res.Changed || changed
			for _, f := range d {
				dirty[f] = true
			}
		case OpDeleteEdge:
			d, changed := fr.deleteEdgeLocked(op.U, op.V)
			res.Changed = res.Changed || changed
			for _, f := range d {
				dirty[f] = true
			}
		case OpInsertNode:
			id, f := fr.insertNodeLocked(op.Label, op.Frag)
			res.NewIDs = append(res.NewIDs, id)
			res.Changed = true
			dirty[f] = true
		case OpDeleteNode:
			d, changed := fr.deleteNodeLocked(op.U)
			res.Changed = res.Changed || changed
			for f := range d {
				dirty[f] = true
			}
		}
	}
	res.Dirty = make([]int, 0, len(dirty))
	for f := range dirty {
		res.Dirty = append(res.Dirty, f)
	}
	sort.Ints(res.Dirty)
	for _, fi := range res.Dirty {
		fr.frags[fi].gen++
	}
	// Bounded overlays: fold a dirtied fragment's overlay back into its
	// flat base when it crosses the threshold, and likewise the global
	// graph's, while we still hold the write lock (the exclusivity
	// compaction needs anyway).
	if limit := fr.overlayLimitLocked(); limit > 0 {
		for _, fi := range res.Dirty {
			if f := fr.frags[fi]; f.OverlayEntries() > limit {
				f.compact()
			}
		}
		if fr.g.OverlayRows() > limit {
			fr.g.Compact()
		}
	}
	return res, nil
}

// validateOpsLocked rejects a batch whose application could fail midway,
// so Apply is all-or-nothing. It simulates node deletions (an op after
// "delete node v" may not reference v) but not insertions (new IDs are
// unknown to the caller until Apply returns).
func (fr *Fragmentation) validateOpsLocked(ops []Op) error {
	n := graph.NodeID(len(fr.owner))
	deletedInBatch := make(map[graph.NodeID]bool)
	live := func(v graph.NodeID) bool {
		return v >= 0 && v < n && fr.owner[v] >= 0 && !deletedInBatch[v]
	}
	for i, op := range ops {
		switch op.Kind {
		case OpInsertEdge, OpDeleteEdge:
			if !live(op.U) || !live(op.V) {
				return fmt.Errorf("fragment: op %d: edge (%d,%d) endpoint not a live node of [0,%d)", i, op.U, op.V, n)
			}
		case OpInsertNode:
			if op.Frag != -1 && (op.Frag < 0 || op.Frag >= len(fr.frags)) {
				return fmt.Errorf("fragment: op %d: node placement %d out of range [0,%d)", i, op.Frag, len(fr.frags))
			}
		case OpDeleteNode:
			if op.U < 0 || op.U >= n {
				return fmt.Errorf("fragment: op %d: node %d out of range [0,%d)", i, op.U, n)
			}
			deletedInBatch[op.U] = true // later ops may not reference it
		default:
			return fmt.Errorf("fragment: op %d: unknown kind %q", i, byte(op.Kind))
		}
	}
	return nil
}

// InsertEdge adds the directed edge (u, v) to the graph and its owning
// fragment(s), maintaining virtual-node and in-node bookkeeping. It
// reports the dirtied fragment IDs (sorted) and whether anything changed
// (false when the edge already existed). Safe for concurrent use with
// readers holding RLock.
func (fr *Fragmentation) InsertEdge(u, v graph.NodeID) (dirty []int, changed bool, err error) {
	res, err := fr.Apply([]Op{{Kind: OpInsertEdge, U: u, V: v}})
	return res.Dirty, res.Changed, err
}

// DeleteEdge removes the directed edge (u, v) from the graph and its
// owning fragment(s), dropping the source fragment's virtual node when its
// last referencing edge disappears and the target's in-node status when no
// cross edge enters it anymore. It reports the dirtied fragment IDs
// (sorted) and whether anything changed (false when the edge did not
// exist). Safe for concurrent use with readers holding RLock.
func (fr *Fragmentation) DeleteEdge(u, v graph.NodeID) (dirty []int, changed bool, err error) {
	res, err := fr.Apply([]Op{{Kind: OpDeleteEdge, U: u, V: v}})
	return res.Dirty, res.Changed, err
}

// InsertNode adds a node carrying label to the graph and places it in a
// fragment: the given one, or — when frag is -1 — the one the attached
// partitioner picks (least-loaded by default). It returns the new node's
// ID and the dirtied fragment. Safe for concurrent use with readers
// holding RLock.
func (fr *Fragmentation) InsertNode(label string, frag int) (graph.NodeID, []int, error) {
	res, err := fr.Apply([]Op{{Kind: OpInsertNode, Label: label, Frag: frag}})
	if err != nil {
		return graph.None, nil, err
	}
	return res.NewIDs[0], res.Dirty, nil
}

// DeleteNode removes node v: every incident edge is deleted first (with
// the usual virtual-node and in-node bookkeeping on both sides), then the
// node itself leaves its fragment and becomes a graph tombstone whose ID a
// later InsertNode may reuse. It reports the dirtied fragment IDs (sorted)
// and whether anything changed (false when v was already deleted). Safe
// for concurrent use with readers holding RLock.
func (fr *Fragmentation) DeleteNode(v graph.NodeID) (dirty []int, changed bool, err error) {
	res, err := fr.Apply([]Op{{Kind: OpDeleteNode, U: v}})
	return res.Dirty, res.Changed, err
}

// insertEdgeLocked adds edge (u, v); endpoints are validated live.
func (fr *Fragmentation) insertEdgeLocked(u, v graph.NodeID) (dirty []int, changed bool) {
	if !fr.g.InsertEdge(u, v) {
		return nil, false
	}
	a, b := int(fr.owner[u]), int(fr.owner[v])
	fa := fr.frags[a]
	lu, _ := fa.ids.local(u)
	if a == b {
		lv, _ := fa.ids.local(v)
		fa.addLocalEdge(lu, lv)
		return []int{a}, true
	}
	// Cross edge: the source fragment gains the edge (ending at a virtual
	// node), the target fragment gains an in-node if v was not one yet.
	// The target side's adjacency and slots stay as they are, so what is
	// derived from them (LocalSCC, the labels) stays right: local
	// reachability does not depend on which nodes are in-nodes.
	lv := fa.ensureVirtual(v, fr.g.Label(v))
	fa.addLocalEdge(lu, lv)
	fr.crossEdges++
	dirty = []int{a}
	fb := fr.frags[b]
	if lb, _ := fb.ids.local(v); !fb.isIn[lb] {
		fb.addInNode(lb)
		fr.vf++
		dirty = append(dirty, b)
	}
	sort.Ints(dirty)
	return dirty, true
}

// deleteEdgeLocked removes edge (u, v); endpoints are validated live.
func (fr *Fragmentation) deleteEdgeLocked(u, v graph.NodeID) (dirty []int, changed bool) {
	if !fr.g.DeleteEdge(u, v) {
		return nil, false
	}
	a, b := int(fr.owner[u]), int(fr.owner[v])
	fa := fr.frags[a]
	lu, _ := fa.ids.local(u)
	lv, _ := fa.ids.local(v)
	fa.removeLocalEdge(lu, lv)
	if a == b {
		return []int{a}, true
	}
	fr.crossEdges--
	fa.dropVirtualIfOrphan(lv)
	dirty = []int{a}
	// v stays an in-node of its fragment iff some cross edge still enters
	// it; the global graph (whose reverse adjacency is maintained
	// incrementally) answers that directly.
	still := false
	for _, w := range fr.g.In(v) {
		if fr.owner[w] != fr.owner[v] {
			still = true
			break
		}
	}
	if !still {
		fb := fr.frags[b]
		if lb, _ := fb.ids.local(v); fb.isIn[lb] {
			// v loses its row in fb's rows; fb's adjacency and slots,
			// hence its labels, stay as they are.
			fb.removeInNode(lb)
			fr.vf--
			dirty = append(dirty, b)
		}
	}
	sort.Ints(dirty)
	return dirty, true
}

// insertNodeLocked adds a node and places it; frag -1 picks the
// least-loaded fragment.
func (fr *Fragmentation) insertNodeLocked(label string, frag int) (graph.NodeID, int) {
	id := fr.g.InsertNode(label)
	if int(id) == len(fr.owner) {
		fr.owner = append(fr.owner, 0)
	}
	if frag < 0 {
		sizes := make([]int, len(fr.frags))
		for i, f := range fr.frags {
			sizes[i] = f.NumLocal()
		}
		frag = leastLoaded(sizes)
	}
	fr.owner[id] = int32(frag)
	f := fr.frags[frag]
	f.addRealNode(id, label)
	return id, frag
}

// deleteNodeLocked removes node v: incident edges cascade through
// deleteEdgeLocked, then the (now isolated) node leaves its fragment and
// becomes a graph tombstone.
func (fr *Fragmentation) deleteNodeLocked(v graph.NodeID) (map[int]bool, bool) {
	if fr.owner[v] < 0 {
		return nil, false
	}
	dirty := make(map[int]bool)
	for _, w := range append([]graph.NodeID(nil), fr.g.Out(v)...) {
		d, _ := fr.deleteEdgeLocked(v, w)
		for _, f := range d {
			dirty[f] = true
		}
	}
	for _, u := range append([]graph.NodeID(nil), fr.g.In(v)...) {
		d, _ := fr.deleteEdgeLocked(u, v)
		for _, f := range d {
			dirty[f] = true
		}
	}
	fi := int(fr.owner[v])
	f := fr.frags[fi]
	f.removeRealNode(v)
	fr.owner[v] = -1
	fr.g.DeleteNode(v) // edges are already gone; this leaves the tombstone
	dirty[fi] = true
	return dirty, true
}

// copyRow returns a private copy of a csr row view, so moving a row
// between slots never aliases the store's immutable base (in-place
// overlay mutations on the destination slot would otherwise corrupt it).
func copyRow(r []int32) []int32 {
	if len(r) == 0 {
		return nil
	}
	return append([]int32(nil), r...)
}

// addRealNode registers v as a new real node of the fragment. Real nodes
// occupy local indices [0, nLocal), so when virtual nodes exist the first
// one is relocated to a fresh tail slot to vacate index nLocal.
func (f *Fragment) addRealNode(v graph.NodeID, label string) {
	// Slot assignments shift (the relocated virtual, the new real slot at
	// the old virtual boundary).
	f.dropDerived()
	slot := int32(f.nLocal)
	if f.NumVirtual() > 0 {
		moved := f.ids.global(slot)
		f.ids.append(moved) // records both directions for the relocated virtual
		f.labs.append(f.labs.get(slot))
		f.isIn = append(f.isIn, false)
		f.adj.AppendRow(nil) // virtual nodes have no out-edges
		f.remapRefs(slot, int32(f.ids.len()-1))
	} else {
		f.ids.append(v)
		f.labs.append("")
		f.isIn = append(f.isIn, false)
		f.adj.AppendRow(nil)
	}
	f.ids.setGlobal(slot, v)
	f.labs.set(slot, label)
	f.isIn[slot] = false
	f.adj.SetRow(slot, nil)
	f.ids.setLocal(v, slot)
	f.nLocal++
}

// removeRealNode deregisters real node v. Preconditions (established by
// deleteNodeLocked): v has no incident edges, so no adjacency list
// references it and it is not an in-node. The last real node swaps into
// the vacated slot, and the tail virtual node swaps into the freed
// boundary slot so the real/virtual split stays contiguous.
func (f *Fragment) removeRealNode(v graph.NodeID) {
	f.dropDerived() // swap-removal renumbers slots
	lv, _ := f.ids.local(v)
	last := int32(f.nLocal - 1)
	if lv != last {
		wasIn := f.isIn[last]
		if wasIn {
			f.removeInNode(last)
		}
		f.remapRefs(last, lv)
		moved := f.ids.global(last)
		f.ids.setGlobal(lv, moved)
		f.labs.set(lv, f.labs.get(last))
		f.adj.SetRow(lv, copyRow(f.adj.Row(last)))
		f.isIn[lv] = false
		f.ids.setLocal(moved, lv)
		if wasIn {
			f.addInNode(lv)
		}
	}
	f.nLocal--
	// Slot nLocal is now free; pull the tail virtual node (if any) into it
	// so virtual nodes keep occupying a contiguous tail.
	tail := int32(f.ids.len() - 1)
	if tail > int32(f.nLocal) {
		f.remapRefs(tail, int32(f.nLocal))
		movedV := f.ids.global(tail)
		f.ids.setGlobal(int32(f.nLocal), movedV)
		f.labs.set(int32(f.nLocal), f.labs.get(tail))
		f.isIn[f.nLocal] = false
		f.adj.SetRow(int32(f.nLocal), nil)
		f.ids.setLocal(movedV, int32(f.nLocal))
	}
	f.ids.truncate(int(tail))
	f.labs.truncate(int(tail))
	f.isIn = f.isIn[:tail]
	f.adj.Truncate(int(tail))
	f.ids.delLocal(v)
}

// remapRefs rewrites every adjacency reference from local index from to
// local index to.
func (f *Fragment) remapRefs(from, to int32) {
	f.adj.ReplaceAll(from, to)
}

// addLocalEdge appends the local edge (lu, lv). The global graph has
// already deduplicated, so the edge is known to be new.
func (f *Fragment) addLocalEdge(lu, lv int32) {
	f.dropDerived()
	f.adj.Append(lu, lv)
	f.edges++
}

// removeLocalEdge deletes the local edge (lu, lv).
func (f *Fragment) removeLocalEdge(lu, lv int32) {
	if f.adj.RemoveFirst(lu, lv) {
		f.dropDerived()
		f.edges--
	}
}

// ensureVirtual returns the local index of global node v, registering it
// as a new virtual node (with the given label) if absent.
func (f *Fragment) ensureVirtual(v graph.NodeID, label string) int32 {
	if l, ok := f.ids.local(v); ok {
		return l
	}
	f.dropDerived()
	l := f.ids.append(v)
	f.labs.append(label)
	f.isIn = append(f.isIn, false)
	f.adj.AppendRow(nil)
	return l
}

// dropVirtualIfOrphan removes virtual node lv when no fragment edge
// targets it anymore, so Fi.O stays exactly "targets of cross edges from
// Fi". The tail virtual node is swapped into the vacated slot (virtual
// nodes occupy the tail of the local index space and never appear in
// inNodes), and every adjacency reference to it is remapped.
func (f *Fragment) dropVirtualIfOrphan(lv int32) {
	if int(lv) < f.nLocal {
		return // real node; only virtual targets are reclaimed
	}
	if f.adj.Contains(lv) {
		return // still referenced
	}
	f.dropDerived() // the tail-swap below renumbers slots
	gone := f.ids.global(lv)
	last := int32(f.ids.len() - 1)
	if lv != last {
		moved := f.ids.global(last)
		f.remapRefs(last, lv)
		f.ids.setGlobal(lv, moved)
		f.labs.set(lv, f.labs.get(last))
		f.isIn[lv] = f.isIn[last]
		f.adj.SetRow(lv, copyRow(f.adj.Row(last)))
		f.ids.setLocal(moved, lv)
	}
	f.ids.truncate(int(last))
	f.labs.truncate(int(last))
	f.isIn = f.isIn[:last]
	f.adj.Truncate(int(last))
	f.ids.delLocal(gone)
}

// addInNode registers real local index l as an in-node, keeping inNodes
// sorted.
func (f *Fragment) addInNode(l int32) {
	f.isIn[l] = true
	i := sort.Search(len(f.inNodes), func(i int) bool { return f.inNodes[i] >= l })
	f.inNodes = append(f.inNodes, 0)
	copy(f.inNodes[i+1:], f.inNodes[i:])
	f.inNodes[i] = l
}

// removeInNode deregisters real local index l as an in-node.
func (f *Fragment) removeInNode(l int32) {
	f.isIn[l] = false
	i := sort.Search(len(f.inNodes), func(i int) bool { return f.inNodes[i] >= l })
	if i < len(f.inNodes) && f.inNodes[i] == l {
		f.inNodes = append(f.inNodes[:i], f.inNodes[i+1:]...)
	}
}
