// Package graph provides node-labeled directed graphs and the traversal
// primitives used throughout the distributed reachability library.
//
// A Graph is built with a Builder and thereafter supports in-place edge
// insertion and deletion, and — since the live-rebalancing work — node
// insertion and deletion as well. Nodes are identified by dense IDs in
// [0, NumNodes). DeleteNode removes the node's incident edges and leaves a
// tombstone: the ID slot stays allocated (so every other node keeps its
// ID) but reads as Deleted, and a later InsertNode reuses the lowest
// tombstoned slot before growing the ID space. Each node carries a label
// drawn from a finite alphabet; labels drive regular reachability queries,
// where the label of a path is the sequence of labels of its interior
// nodes.
//
// Storage is CSR-compact: the forward and reverse adjacencies live in
// csr.Store bases (one offsets array plus one flat targets array each,
// 4 bytes per node + 4 bytes per edge) with small copy-on-write overlays
// absorbing live mutations; Compact folds an overlay back into its base.
// This is what lets one site hold multi-million-node graphs in RAM.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"distreach/internal/csr"
)

// NodeID identifies a node within a Graph. IDs are dense: 0..NumNodes-1.
type NodeID int32

// None is the sentinel for "no node".
const None NodeID = -1

// Graph is a node-labeled directed graph.
//
// Use a Builder to construct graphs. Read methods are safe for concurrent
// use; InsertEdge and DeleteEdge mutate the structure and require the
// caller to exclude all other readers and writers
// (internal/fragment.Fragmentation serializes this for the distributed
// runtime).
type Graph struct {
	labels []string
	adj    *csr.Store[NodeID] // out-adjacency, sorted per node
	m      int                // number of edges

	deleted []bool   // tombstones; nil when no node was ever deleted
	free    []NodeID // tombstoned slots, ascending; InsertNode reuses the lowest

	revMu sync.Mutex
	rev   *csr.Store[NodeID] // in-adjacency, built lazily; nil until first use
}

// NumNodes reports the number of node-ID slots in g, including tombstones
// left by DeleteNode. IDs are always in [0, NumNodes).
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumLive reports the number of live (non-deleted) nodes.
func (g *Graph) NumLive() int { return len(g.labels) - len(g.free) }

// Deleted reports whether node v is a tombstone left by DeleteNode.
func (g *Graph) Deleted(v NodeID) bool {
	return g.deleted != nil && g.deleted[v]
}

// NumEdges reports the number of directed edges in g.
func (g *Graph) NumEdges() int { return g.m }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) string { return g.labels[v] }

// Labels returns the label slice indexed by NodeID. The caller must not
// modify the returned slice.
func (g *Graph) Labels() []string { return g.labels }

// Out returns the out-neighbors of v in ascending order. The caller must not
// modify the returned slice.
func (g *Graph) Out(v NodeID) []NodeID { return g.adj.Row(int32(v)) }

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int { return g.adj.RowLen(int32(v)) }

// In returns the in-neighbors of v. The reverse adjacency is built on first
// use and cached. The caller must not modify the returned slice.
func (g *Graph) In(v NodeID) []NodeID {
	g.buildReverse()
	return g.rev.Row(int32(v))
}

// InDegree reports the in-degree of v.
func (g *Graph) InDegree(v NodeID) int {
	g.buildReverse()
	return g.rev.RowLen(int32(v))
}

func (g *Graph) buildReverse() {
	g.revMu.Lock()
	defer g.revMu.Unlock()
	if g.rev == nil {
		g.rev = csr.Transpose(len(g.labels), g.Out)
	}
}

// InsertEdge adds the directed edge (u, v) in place, reporting whether the
// graph changed (false when the edge already exists). Both endpoints must
// be existing nodes. The caller must exclude concurrent readers and
// writers for the duration of the call.
func (g *Graph) InsertEdge(u, v NodeID) bool {
	if !g.adj.InsertSorted(int32(u), v) {
		return false
	}
	g.m++
	if g.rev != nil {
		g.rev.InsertSorted(int32(v), u)
	}
	return true
}

// DeleteEdge removes the directed edge (u, v) in place, reporting whether
// the graph changed (false when the edge did not exist). The caller must
// exclude concurrent readers and writers for the duration of the call.
func (g *Graph) DeleteEdge(u, v NodeID) bool {
	if !g.adj.RemoveSorted(int32(u), v) {
		return false
	}
	g.m--
	if g.rev != nil {
		g.rev.RemoveSorted(int32(v), u)
	}
	return true
}

// InsertNode adds a node carrying label and returns its ID, reusing the
// lowest tombstoned slot when one exists (so the ID space does not grow
// without bound under node churn) and appending a fresh ID otherwise. The
// caller must exclude concurrent readers and writers for the duration of
// the call.
func (g *Graph) InsertNode(label string) NodeID {
	if len(g.free) > 0 {
		id := g.free[0]
		g.free = g.free[1:]
		g.labels[id] = label
		g.deleted[id] = false
		return id
	}
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, label)
	g.adj.AppendRow(nil)
	if g.deleted != nil {
		g.deleted = append(g.deleted, false)
	}
	if g.rev != nil {
		g.rev.AppendRow(nil)
	}
	return id
}

// DeleteNode removes node v in place: every incident edge (outgoing and
// incoming) is deleted and the slot becomes a tombstone that a later
// InsertNode may reuse. It reports whether the graph changed (false when v
// is out of range or already deleted). Other nodes keep their IDs. The
// caller must exclude concurrent readers and writers for the duration of
// the call.
func (g *Graph) DeleteNode(v NodeID) bool {
	if v < 0 || int(v) >= len(g.labels) || g.Deleted(v) {
		return false
	}
	// Incoming edges require the reverse adjacency; build it before
	// mutating so it stays maintained incrementally afterwards.
	g.buildReverse()
	for _, w := range append([]NodeID(nil), g.Out(v)...) {
		g.rev.RemoveSorted(int32(w), v)
		g.m--
	}
	g.adj.SetRow(int32(v), nil)
	for _, u := range append([]NodeID(nil), g.rev.Row(int32(v))...) {
		g.adj.RemoveSorted(int32(u), v)
		g.m--
	}
	g.rev.SetRow(int32(v), nil)
	if g.deleted == nil {
		g.deleted = make([]bool, len(g.labels))
	}
	g.deleted[v] = true
	g.labels[v] = ""
	g.free, _ = insertSortedIDs(g.free, v)
	return true
}

// insertSortedIDs adds v to the ascending slice s unless already present,
// reporting whether it inserted.
func insertSortedIDs(s []NodeID, v NodeID) ([]NodeID, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	nbrs := g.Out(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Edges calls fn for every directed edge (u, v); it stops early if fn
// returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := 0; u < g.adj.NumRows(); u++ {
		for _, v := range g.adj.Row(int32(u)) {
			if !fn(NodeID(u), v) {
				return
			}
		}
	}
}

// Compact folds the forward and reverse adjacency overlays back into
// fresh CSR bases. Content is unchanged; the caller must exclude all
// readers and writers for the duration (the serving runtime compacts at
// rebalance and snapshot time, under the fragmentation write lock).
func (g *Graph) Compact() {
	g.adj.Compact()
	g.revMu.Lock()
	if g.rev != nil {
		g.rev.Compact()
	}
	g.revMu.Unlock()
}

// OverlayRows reports the graph's compaction debt: adjacency rows (forward
// and reverse) currently living outside the flat CSR bases. The
// fragmentation's overlay-threshold auto-compaction consults it.
func (g *Graph) OverlayRows() int {
	rows := g.adj.OverlayRows()
	g.revMu.Lock()
	if g.rev != nil {
		rows += g.rev.OverlayRows()
	}
	g.revMu.Unlock()
	return rows
}

// StorageBytes estimates the resident bytes of the graph's storage:
// adjacency bases and overlays, labels (headers plus content), and the
// tombstone bookkeeping.
func (g *Graph) StorageBytes() int64 {
	b := g.adj.Bytes()
	g.revMu.Lock()
	if g.rev != nil {
		b += g.rev.Bytes()
	}
	g.revMu.Unlock()
	b += int64(cap(g.labels)) * 16
	for _, l := range g.labels {
		b += int64(len(l))
	}
	b += int64(cap(g.deleted)) + int64(cap(g.free))*4
	return b
}

// Validate checks internal invariants and returns an error describing the
// first violation found, or nil. It is intended for tests and for data
// loaded from external sources.
func (g *Graph) Validate() error {
	n := NodeID(len(g.labels))
	count := 0
	for u := NodeID(0); u < n; u++ {
		nbrs := g.Out(u)
		for i, v := range nbrs {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) target out of range [0,%d)", u, v, n)
			}
			if i > 0 && nbrs[i-1] > v {
				return fmt.Errorf("graph: adjacency of node %d not sorted", u)
			}
			count++
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count %d does not match stored m=%d", count, g.m)
	}
	// Tombstone consistency: the free list and the deleted flags must agree,
	// and a deleted node must have no incident edges.
	nDel := 0
	for v := NodeID(0); v < n; v++ {
		if !g.Deleted(v) {
			continue
		}
		nDel++
		if g.OutDegree(v) != 0 {
			return fmt.Errorf("graph: deleted node %d has out-edges", v)
		}
	}
	if nDel != len(g.free) {
		return fmt.Errorf("graph: %d deleted nodes but %d free slots", nDel, len(g.free))
	}
	for i, v := range g.free {
		if !g.Deleted(v) {
			return fmt.Errorf("graph: free slot %d is not deleted", v)
		}
		if i > 0 && g.free[i-1] >= v {
			return fmt.Errorf("graph: free list not sorted at %d", v)
		}
	}
	var bad error
	g.Edges(func(u, v NodeID) bool {
		if g.Deleted(v) {
			bad = fmt.Errorf("graph: edge (%d,%d) targets a deleted node", u, v)
			return false
		}
		return true
	})
	return bad
}

// Clone returns a deep copy of g. The copy shares no mutable state with g
// (the immutable CSR base is shared copy-on-write).
func (g *Graph) Clone() *Graph {
	return &Graph{
		labels:  append([]string(nil), g.labels...),
		adj:     g.adj.Clone(),
		m:       g.m,
		free:    append([]NodeID(nil), g.free...),
		deleted: append([]bool(nil), g.deleted...),
	}
}

// InducedSubgraph returns the subgraph of g induced by nodes, together with
// a mapping from new (dense) IDs back to the original IDs. Nodes may be in
// any order and must not contain duplicates.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID) {
	local := make(map[NodeID]NodeID, len(nodes))
	orig := make([]NodeID, len(nodes))
	for i, v := range nodes {
		local[v] = NodeID(i)
		orig[i] = v
	}
	b := NewBuilder(len(nodes))
	for _, v := range nodes {
		b.AddNode(g.labels[v])
	}
	for i, v := range nodes {
		for _, w := range g.Out(v) {
			if lw, ok := local[w]; ok {
				b.AddEdge(NodeID(i), lw)
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		// Induced subgraphs of a valid graph are always valid.
		panic("graph: induced subgraph build failed: " + err.Error())
	}
	return sub, orig
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	b := NewBuilder(g.NumNodes())
	for _, l := range g.labels {
		b.AddNode(l)
	}
	g.Edges(func(u, v NodeID) bool {
		b.AddEdge(v, u)
		return true
	})
	r, err := b.Build()
	if err != nil {
		panic("graph: reverse build failed: " + err.Error())
	}
	return r
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d, |E|=%d}", g.NumNodes(), g.NumEdges())
}

// Builder incrementally constructs a Graph. It is not safe for concurrent
// use. Duplicate edges are coalesced; self-loops are permitted (the paper
// places no constraints on graph shape).
type Builder struct {
	labels []string
	edges  [][2]NodeID
}

// NewBuilder returns a Builder with capacity hints for n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{labels: make([]string, 0, n)}
}

// AddNode appends a node with the given label and returns its ID.
func (b *Builder) AddNode(label string) NodeID {
	b.labels = append(b.labels, label)
	return NodeID(len(b.labels) - 1)
}

// AddNodes appends n nodes all carrying label and returns the ID of the
// first one.
func (b *Builder) AddNodes(n int, label string) NodeID {
	first := NodeID(len(b.labels))
	for i := 0; i < n; i++ {
		b.labels = append(b.labels, label)
	}
	return first
}

// AddEdge records the directed edge (u, v). Endpoints must already exist by
// the time Build is called.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, [2]NodeID{u, v})
}

// NumNodes reports the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// Build finalizes the Builder into an immutable Graph. It sorts adjacency
// lists, removes duplicate edges, and validates endpoints.
func (b *Builder) Build() (*Graph, error) {
	n := NodeID(len(b.labels))
	for _, e := range b.edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references missing node (n=%d)", e[0], e[1], n)
		}
	}
	deg := make([]int32, n)
	for _, e := range b.edges {
		deg[e[0]]++
	}
	adj := make([][]NodeID, n)
	for v := range adj {
		if deg[v] > 0 {
			adj[v] = make([]NodeID, 0, deg[v])
		}
	}
	for _, e := range b.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	m := 0
	for v := range adj {
		nbrs := adj[v]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		// Deduplicate in place.
		out := nbrs[:0]
		for i, w := range nbrs {
			if i == 0 || nbrs[i-1] != w {
				out = append(out, w)
			}
		}
		adj[v] = out
		m += len(out)
	}
	return &Graph{labels: append([]string(nil), b.labels...), adj: csr.FromRows(adj), m: m}, nil
}

// MustBuild is like Build but panics on error. Intended for tests and
// generators whose inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
