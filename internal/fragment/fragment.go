// Package fragment implements graph fragmentations F = (F, Gf) as defined in
// Section 2.1 of the paper: a partition of the node set into fragments
// F1..Fk, where each fragment additionally carries
//
//   - Fi.O, its virtual nodes: one per node in another fragment that some
//     node of Fi has an edge to, together with the cross edges cEi;
//   - Fi.I, its in-nodes: the nodes of Fi that have an incoming cross edge
//     from another fragment.
//
// The fragment graph Gf collects all in-nodes, virtual nodes and cross
// edges. No constraints are placed on how the graph is fragmented: any
// assignment of nodes to fragments is legal (the paper's guarantees must
// hold for arbitrary fragmentations).
package fragment

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"distreach/internal/csr"
	"distreach/internal/graph"
	"distreach/internal/reachindex"
)

// Fragmentation is a partition of a graph into fragments plus the derived
// fragment graph. The node-to-fragment assignment is fixed at Build time,
// but the edge set is live: InsertEdge and DeleteEdge mutate the global
// graph and the affected fragments in place, maintaining the virtual-node
// and in-node bookkeeping on both sides of a cross edge and reporting which
// fragments were dirtied (whose partial answers may have changed).
//
// Concurrency: mutations serialize internally; readers that must not
// observe a mutation mid-flight (the wire sites evaluating queries) hold
// RLock for the duration of their read. Purely in-process callers that
// never mutate concurrently may skip the lock.
type Fragmentation struct {
	mu    sync.RWMutex
	g     *graph.Graph
	frags []*Fragment
	owner []int32 // node -> fragment index; -1 for tombstoned nodes

	// Fragment graph Gf summary: all cross edges (u, v) where u and v live
	// in different fragments. CrossEdges is also the edge set of Gf.
	crossEdges int
	vf         int // |Vf|: number of distinct in-nodes plus virtual-node originals

	// instance names this Fragmentation value among every one ever built —
	// by a rebalance, a snapshot install or another process alike. Random
	// and never zero; see Fragment.Generation for what it keys.
	instance uint64

	// lsn is the last sequenced update batch this state reflects (0: none),
	// written under the write lock of the apply it counts — so a reader
	// holding RLock sees the LSN of exactly the state it reads; see LSN.
	lsn uint64

	// Reachability-index lifecycle (reachidx.go): the per-fragment label
	// budget (<= 0: disabled), completed rebuild count, last/total build wall time in nanoseconds, and the
	// WaitGroup WaitReachIndexes blocks on. Overlay auto-compaction
	// threshold for update batches (update.go); 0 means DefaultOverlayLimit.
	idxBudget     atomic.Int64
	idxRebuilds   atomic.Int64
	idxLastBuild  atomic.Int64
	idxTotalBuild atomic.Int64
	idxWG         sync.WaitGroup
	overlayLim    int
}

// Instance reports the fragmentation's instance ID: random, non-zero,
// fixed at Build. Two fragmentations never share one, however they came
// about — a rebalanced or snapshot-installed replacement and a restarted
// process all draw a fresh ID.
func (fr *Fragmentation) Instance() uint64 { return fr.instance }

// LSN reports the last sequenced update batch the fragmentation reflects.
// Replica.ApplyLSN records it under the write lock of the apply itself
// (a rejected batch takes its slot too), so a reader holding RLock gets the
// LSN of the state it evaluates on, not of one a batch has since replaced —
// which Replica.State, read before the lock is taken, cannot promise.
// Callers racing sequenced updates must hold RLock.
func (fr *Fragmentation) LSN() uint64 { return fr.lsn }

// setLSN carries a replica's LSN over to a fragmentation it adopts.
func (fr *Fragmentation) setLSN(lsn uint64) {
	fr.mu.Lock()
	fr.lsn = lsn
	fr.mu.Unlock()
}

// newInstanceID draws a non-zero random instance ID from the runtime's
// generator, which every process seeds from system entropy.
func newInstanceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// RLock takes the fragmentation's read lock: queries evaluated concurrently
// with InsertEdge/DeleteEdge must hold it so an update never mutates a
// fragment mid-evaluation.
func (fr *Fragmentation) RLock() { fr.mu.RLock() }

// RUnlock releases RLock.
func (fr *Fragmentation) RUnlock() { fr.mu.RUnlock() }

// Fragment is one fragment Fi. Local node indices are dense:
//
//	0 .. NumLocal-1            real nodes of Vi (in global ID order),
//	NumLocal .. NumTotal-1     virtual nodes (Fi.O).
//
// Local adjacency includes both internal edges Ei and cross edges cEi (which
// always end at a virtual node). Virtual nodes have no outgoing edges within
// the fragment.
//
// Storage is CSR-compact: adjacency lives in a csr.Store (flat
// offsets/targets arrays plus a mutation overlay), the two-way local/global
// index is a single sorted array with an overlay (idIndex), and labels are
// interned (labelTable). Live mutations accumulate in the overlays; compact
// folds them back to the flat form and renumbers local indices to the
// canonical order above. All equations, partial answers and wire frames
// reference nodes by global ID, so renumbering is invisible outside the
// fragment.
type Fragment struct {
	ID int

	ids     *idIndex          // local slot <-> global ID
	adj     *csr.Store[int32] // local out-adjacency
	labs    *labelTable       // local labels (virtual nodes carry the remote label)
	nLocal  int               // count of real nodes
	inNodes []int32           // Fi.I as local indices (sorted)
	isIn    []bool            // local index -> member of Fi.I
	edges   int               // |Ei| + |cEi|

	// gen counts the update batches that dirtied this fragment; written
	// under the fragmentation's write lock, read under its read lock.
	gen uint64

	// The local SCC decomposition (LocalSCC), built on first use and
	// dropped whenever the fragment mutates.
	sccMu sync.Mutex
	scc   []int32

	// Reachability index (reachidx.go): installed by an async builder via
	// atomic swap, probed lock-free by TargetOnlyReach, incrementally
	// invalidated under the write lock, retired whenever local slots
	// renumber. idxHits/idxFallbacks count the probes, answered and not,
	// of whichever index a probe loaded.
	idx          atomic.Pointer[reachindex.Index]
	idxBuilding  atomic.Bool
	idxHits      atomic.Int64
	idxFallbacks atomic.Int64
}

// Generation reports how many update batches have dirtied the fragment
// since Build. Every mutation path runs through one Apply, which bumps the
// generation of each fragment in its dirty set before it releases the write
// lock; hence, for a reader holding the read lock, equal (Instance,
// Generation) pairs mean equal partial answers — in particular equal
// in-node rows (core.LocalEvalReach with no source and no target), which
// is what lets a coordinator keep them across queries. Compaction does not
// bump it: it renumbers local slots, and partial answers speak global IDs.
func (f *Fragment) Generation() uint64 { return f.gen }

// NumLocal reports |Vi|, the number of real nodes stored in the fragment.
func (f *Fragment) NumLocal() int { return f.nLocal }

// NumVirtual reports |Fi.O|, the number of virtual nodes.
func (f *Fragment) NumVirtual() int { return f.ids.len() - f.nLocal }

// NumTotal reports the number of local indices (real + virtual).
func (f *Fragment) NumTotal() int { return f.ids.len() }

// NumEdges reports |Ei| + |cEi|, the edges stored at this fragment.
func (f *Fragment) NumEdges() int { return f.edges }

// Size reports the fragment size |Fi| = nodes + edges, the quantity the
// paper's complexity bounds call |Fm| for the largest fragment.
func (f *Fragment) Size() int { return f.NumTotal() + f.edges }

// Global maps a local index to the global node ID.
func (f *Fragment) Global(local int32) graph.NodeID { return f.ids.global(local) }

// Local maps a global node ID to its local index; ok is false if the node is
// neither stored in nor a virtual node of this fragment.
func (f *Fragment) Local(v graph.NodeID) (int32, bool) {
	return f.ids.local(v)
}

// HasLocal reports whether global node v is a real (non-virtual) node of
// this fragment.
func (f *Fragment) HasLocal(v graph.NodeID) bool {
	l, ok := f.ids.local(v)
	return ok && int(l) < f.nLocal
}

// IsVirtual reports whether local index l denotes a virtual node.
func (f *Fragment) IsVirtual(l int32) bool { return int(l) >= f.nLocal }

// Out returns the local out-neighbors of local node l. Callers must not
// modify the returned slice, nor hold it across a Compact.
func (f *Fragment) Out(l int32) []int32 { return f.adj.Row(l) }

// LocalSCC returns the strongly-connected-component index of every local
// slot of the fragment (virtual nodes, which have no outgoing edges, are
// singletons), numbered as graph.SCCOf numbers them. The decomposition is
// query-independent: it is computed from the fragment's own adjacency on
// first use, cached, and dropped by mutation. It backs the equation
// aliasing of local evaluation — in-nodes in the same local SCC reach
// exactly the same boundary nodes, so their Boolean equations are
// identical — and the reachability index build, which keeps it. Callers
// must not modify the returned slice.
func (f *Fragment) LocalSCC() []int32 {
	f.sccMu.Lock()
	defer f.sccMu.Unlock()
	if f.scc == nil {
		f.scc, _ = graph.SCCOf(f.NumTotal(), f.Out)
	}
	return f.scc
}

// invalidateSCC drops the cached SCC decomposition after a mutation.
func (f *Fragment) invalidateSCC() {
	f.sccMu.Lock()
	f.scc = nil
	f.sccMu.Unlock()
}

// Label returns the label of local node l.
func (f *Fragment) Label(l int32) string { return f.labs.get(l) }

// LabelCode returns the position of slot l's label in LabelDict, or false
// when the label did not fit the dictionary's 256 ids; read such a label
// with Label.
func (f *Fragment) LabelCode(l int32) (uint8, bool) { return f.labs.code(l) }

// LabelDict returns the labels LabelCode indexes, at most 256. Callers must
// not modify it.
func (f *Fragment) LabelDict() []string { return f.labs.dict[:min(len(f.labs.dict), 256)] }

// InNodes returns Fi.I as local indices, sorted ascending. Callers must not
// modify the returned slice.
func (f *Fragment) InNodes() []int32 { return f.inNodes }

// IsInNode reports whether local index l is one of the fragment's in-nodes.
func (f *Fragment) IsInNode(l int32) bool { return f.isIn[l] }

// IsBoundary reports whether local index l is a boundary node of the
// fragment: a virtual node or an in-node. Boundary nodes carry Boolean
// variables in the partial answers, so local evaluation can stop expanding
// at them — the coordinator's equation system composes across them.
func (f *Fragment) IsBoundary(l int32) bool { return f.IsVirtual(l) || f.isIn[l] }

// VirtualNodes returns Fi.O as local indices (NumLocal..NumTotal-1).
func (f *Fragment) VirtualNodes() []int32 {
	out := make([]int32, 0, f.NumVirtual())
	for l := int32(f.nLocal); int(l) < f.ids.len(); l++ {
		out = append(out, l)
	}
	return out
}

// EncodedSize estimates the bytes needed to ship this fragment to another
// site (used by the naive baselines): label bytes plus 8 bytes per edge.
func (f *Fragment) EncodedSize() int {
	size := 16
	for l := int32(0); int(l) < f.ids.len(); l++ {
		size += 4 + len(f.labs.get(l))
	}
	size += 8 * f.edges
	return size
}

// StorageBytes estimates the resident bytes of the fragment's storage:
// exact for the flat bases, modeled for the overlays (~48 bytes per map
// entry). This is the quantity exp N7 charts against the legacy map-based
// layout.
func (f *Fragment) StorageBytes() int64 {
	return f.ids.bytes() + f.adj.Bytes() + f.labs.bytes() +
		int64(cap(f.isIn)) + int64(cap(f.inNodes))*4
}

// OverlayEntries reports the fragment's compaction debt: the number of
// rows, slots and index entries currently living outside the flat bases.
func (f *Fragment) OverlayEntries() int {
	return f.ids.overlayEntries() + f.adj.OverlayRows()
}

// compact folds every overlay back into flat arrays and renumbers local
// indices to the canonical order (real nodes sorted by global ID, then
// virtual nodes sorted by global ID) — the order Build produces, so a
// compacted fragment is indistinguishable from a freshly built one. Safe
// only while the caller excludes readers (the Fragmentation write lock).
func (f *Fragment) compact() {
	if f.OverlayEntries() == 0 {
		return
	}
	// Renumbering invalidates every slot reference the reachability index
	// holds; retire it (the owner reschedules a rebuild).
	f.retireReachIndex()
	nTotal := f.ids.len()
	order := make([]graph.NodeID, nTotal)
	for l := 0; l < nTotal; l++ {
		order[l] = f.ids.global(int32(l))
	}
	reals := append([]graph.NodeID(nil), order[:f.nLocal]...)
	virts := append([]graph.NodeID(nil), order[f.nLocal:]...)
	sort.Slice(reals, func(i, j int) bool { return reals[i] < reals[j] })
	sort.Slice(virts, func(i, j int) bool { return virts[i] < virts[j] })
	base := append(reals, virts...)
	newSlot := make(map[graph.NodeID]int32, nTotal)
	for l, v := range base {
		newSlot[v] = int32(l)
	}
	perm := make([]int32, nTotal) // old slot -> new slot
	for l := 0; l < nTotal; l++ {
		perm[l] = newSlot[order[l]]
	}
	rows := make([][]int32, nTotal)
	labels := make([]string, nTotal)
	isIn := make([]bool, nTotal)
	for l := 0; l < nTotal; l++ {
		nl := perm[l]
		old := f.adj.Row(int32(l))
		if len(old) > 0 {
			row := make([]int32, len(old))
			for i, w := range old {
				row[i] = perm[w]
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			rows[nl] = row
		}
		labels[nl] = f.labs.get(int32(l))
		isIn[nl] = f.isIn[l]
	}
	f.ids = newIDIndex(base, f.nLocal)
	f.adj = csr.FromRows(rows)
	f.labs = newLabelTable(nTotal)
	for _, s := range labels {
		f.labs.append(s)
	}
	f.isIn = isIn
	f.inNodes = f.inNodes[:0]
	for l, in := range isIn {
		if in {
			f.inNodes = append(f.inNodes, int32(l))
		}
	}
	f.invalidateSCC()
}

// Graph returns the underlying global graph.
func (fr *Fragmentation) Graph() *graph.Graph { return fr.g }

// Fragments returns the fragments F1..Fk. Callers must not modify the slice.
func (fr *Fragmentation) Fragments() []*Fragment { return fr.frags }

// Card reports card(F), the number of fragments.
func (fr *Fragmentation) Card() int { return len(fr.frags) }

// Owner reports the index of the fragment that stores node v, or -1 when
// v is a tombstone left by DeleteNode.
func (fr *Fragmentation) Owner(v graph.NodeID) int { return int(fr.owner[v]) }

// CrossEdges reports the number of edges crossing fragments (|Ef|).
func (fr *Fragmentation) CrossEdges() int { return fr.crossEdges }

// Vf reports |Vf|, the number of nodes in the fragment graph Gf: the
// distinct nodes that are an in-node or the origin of a virtual node in some
// fragment. This is the quantity that bounds network traffic.
func (fr *Fragmentation) Vf() int { return fr.vf }

// MaxFragmentSize reports |Fm|, the size (nodes+edges) of the largest
// fragment, which bounds the parallel local-evaluation cost.
func (fr *Fragmentation) MaxFragmentSize() int {
	max := 0
	for _, f := range fr.frags {
		if s := f.Size(); s > max {
			max = s
		}
	}
	return max
}

// StorageBytes sums the fragments' StorageBytes.
func (fr *Fragmentation) StorageBytes() int64 {
	var b int64
	for _, f := range fr.frags {
		b += f.StorageBytes()
	}
	return b
}

// Compact folds every fragment's mutation overlay (and the global graph's)
// back into flat CSR arrays, renumbering local indices to the canonical
// Build order. It takes the write lock, so it must not run concurrently
// with a query evaluation that holds RLock across its whole read — the
// serving runtime calls it at the same epoch-swap points that install
// rebalances and snapshots. Cached rvsets and answer caches stay valid:
// they are keyed by global IDs, which compaction never changes.
func (fr *Fragmentation) Compact() {
	fr.mu.Lock()
	fr.g.Compact()
	for _, f := range fr.frags {
		f.compact()
	}
	fr.mu.Unlock()
	// compact() retires the fragments' reachability indexes (slots were
	// renumbered); rebuild them off the critical path.
	if fr.idxBudget.Load() > 0 {
		for _, f := range fr.frags {
			fr.rebuildReachIndexAsync(f)
		}
	}
}

// String summarizes the fragmentation.
func (fr *Fragmentation) String() string {
	return fmt.Sprintf("fragmentation{k=%d, |Vf|=%d, |Ef|=%d, |Fm|=%d}",
		fr.Card(), fr.Vf(), fr.CrossEdges(), fr.MaxFragmentSize())
}

// Build constructs a Fragmentation from an assignment of each node to a
// fragment in [0, k). Every fragment index in [0, k) is allowed to be empty
// (this arises when k exceeds the number of nodes).
func Build(g *graph.Graph, assign []int, k int) (*Fragmentation, error) {
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("fragment: assignment covers %d nodes, graph has %d", len(assign), g.NumNodes())
	}
	if k <= 0 {
		return nil, fmt.Errorf("fragment: fragment count %d must be positive", k)
	}
	owner := make([]int32, len(assign))
	for v, fi := range assign {
		if g.Deleted(graph.NodeID(v)) {
			owner[v] = -1 // tombstone: stored nowhere, assignment ignored
			continue
		}
		if fi < 0 || fi >= k {
			return nil, fmt.Errorf("fragment: node %d assigned to fragment %d, want [0,%d)", v, fi, k)
		}
		owner[v] = int32(fi)
	}
	// Build with plain slices and one transient map per fragment, then
	// freeze into the compact stores at the end.
	type build struct {
		globalOf []graph.NodeID
		localOf  map[graph.NodeID]int32
		adj      [][]int32
		labels   []string
		nLocal   int
		inNodes  []int32
		isIn     []bool
		edges    int
	}
	bs := make([]*build, k)
	for i := range bs {
		bs[i] = &build{localOf: make(map[graph.NodeID]int32)}
	}
	// First pass: register real nodes in global ID order so local indices
	// are deterministic (and the idIndex base real prefix is sorted).
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if owner[v] < 0 {
			continue
		}
		b := bs[owner[v]]
		b.localOf[v] = int32(len(b.globalOf))
		b.globalOf = append(b.globalOf, v)
		b.labels = append(b.labels, g.Label(v))
	}
	for _, b := range bs {
		b.nLocal = len(b.globalOf)
	}
	// Second pass: collect cross-edge targets, then register each
	// fragment's virtual nodes in ascending global-ID order (the idIndex
	// virtual tail must be sorted; the order is also what replicas derive
	// independently, so it must be a pure function of graph+assignment).
	crossEdges := 0
	isIn := make([]bool, g.NumNodes())   // node has an incoming cross edge
	isOrig := make([]bool, g.NumNodes()) // node is the original of some virtual node
	virtuals := make([][]graph.NodeID, k)
	g.Edges(func(u, v graph.NodeID) bool {
		if owner[u] == owner[v] {
			return true
		}
		crossEdges++
		isIn[v] = true
		isOrig[v] = true
		b := bs[owner[u]]
		if _, ok := b.localOf[v]; !ok {
			b.localOf[v] = -1 // placeholder: slot assigned after sorting
			virtuals[owner[u]] = append(virtuals[owner[u]], v)
		}
		return true
	})
	for i, b := range bs {
		vs := virtuals[i]
		sort.Slice(vs, func(x, y int) bool { return vs[x] < vs[y] })
		for _, v := range vs {
			b.localOf[v] = int32(len(b.globalOf))
			b.globalOf = append(b.globalOf, v)
			b.labels = append(b.labels, g.Label(v))
		}
	}
	// Third pass: build local adjacency (internal edges + cross edges).
	for _, b := range bs {
		b.adj = make([][]int32, len(b.globalOf))
	}
	g.Edges(func(u, v graph.NodeID) bool {
		b := bs[owner[u]]
		lu := b.localOf[u]
		lv := b.localOf[v] // exists: same-fragment or virtual registered above
		b.adj[lu] = append(b.adj[lu], lv)
		b.edges++
		return true
	})
	// Canonicalize rows by local index so a freshly built fragment and a
	// compacted one are bit-identical.
	for _, b := range bs {
		for _, row := range b.adj {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		}
	}
	// In-nodes per fragment.
	for _, b := range bs {
		b.isIn = make([]bool, len(b.globalOf))
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if isIn[v] {
			b := bs[owner[v]]
			b.inNodes = append(b.inNodes, b.localOf[v])
			b.isIn[b.localOf[v]] = true
		}
	}
	vf := 0
	for v := range isOrig {
		if isOrig[v] || isIn[v] {
			vf++
		}
	}
	// Freeze into compact fragments.
	frags := make([]*Fragment, k)
	for i, b := range bs {
		f := &Fragment{
			ID:      i,
			ids:     newIDIndex(b.globalOf, b.nLocal),
			adj:     csr.FromRows(b.adj),
			labs:    newLabelTable(len(b.globalOf)),
			nLocal:  b.nLocal,
			inNodes: b.inNodes,
			isIn:    b.isIn,
			edges:   b.edges,
		}
		for _, s := range b.labels {
			f.labs.append(s)
		}
		frags[i] = f
	}
	return &Fragmentation{g: g, frags: frags, owner: owner, crossEdges: crossEdges, vf: vf, instance: newInstanceID()}, nil
}

// Validate checks the structural invariants of the fragmentation against its
// source graph: the fragments partition V; cross edges appear exactly once
// (at the source fragment, ending in a virtual node); in-node sets match;
// labels agree with the global graph. Returns the first violation found.
func (fr *Fragmentation) Validate() error {
	g := fr.g
	seen := make([]bool, g.NumNodes())
	totalLocal := 0
	for _, f := range fr.frags {
		for l := 0; l < f.nLocal; l++ {
			v := f.Global(int32(l))
			if seen[v] {
				return fmt.Errorf("fragment: node %d stored in more than one fragment", v)
			}
			seen[v] = true
			if f.Label(int32(l)) != g.Label(v) {
				return fmt.Errorf("fragment: node %d label mismatch", v)
			}
			if fr.owner[v] != int32(f.ID) {
				return fmt.Errorf("fragment: owner index inconsistent for node %d", v)
			}
			if got, ok := f.Local(v); !ok || got != int32(l) {
				return fmt.Errorf("fragment %d: index roundtrip broken for node %d", f.ID, v)
			}
		}
		totalLocal += f.nLocal
		// Virtual nodes must belong to other fragments and have no out-edges.
		for l := f.nLocal; l < f.NumTotal(); l++ {
			v := f.Global(int32(l))
			if fr.owner[v] == int32(f.ID) {
				return fmt.Errorf("fragment %d: virtual node %d is local", f.ID, v)
			}
			if f.adj.RowLen(int32(l)) != 0 {
				return fmt.Errorf("fragment %d: virtual node %d has out-edges", f.ID, v)
			}
			if f.Label(int32(l)) != g.Label(v) {
				return fmt.Errorf("fragment %d: virtual node %d label mismatch", f.ID, v)
			}
			if got, ok := f.Local(v); !ok || got != int32(l) {
				return fmt.Errorf("fragment %d: index roundtrip broken for virtual node %d", f.ID, v)
			}
		}
	}
	if totalLocal != g.NumLive() {
		return fmt.Errorf("fragment: fragments store %d nodes, graph has %d live", totalLocal, g.NumLive())
	}
	// Edge coverage: every global edge appears exactly once across fragments.
	edgeCount := 0
	for _, f := range fr.frags {
		for lu := 0; lu < f.NumTotal(); lu++ {
			u := f.Global(int32(lu))
			for _, lv := range f.adj.Row(int32(lu)) {
				v := f.Global(lv)
				if !g.HasEdge(u, v) {
					return fmt.Errorf("fragment %d: phantom edge (%d,%d)", f.ID, u, v)
				}
				edgeCount++
			}
		}
	}
	if edgeCount != g.NumEdges() {
		return fmt.Errorf("fragment: fragments carry %d edges, graph has %d", edgeCount, g.NumEdges())
	}
	// In-node correctness: v in Fi.I iff some cross edge enters v.
	wantIn := make(map[graph.NodeID]bool)
	g.Edges(func(u, v graph.NodeID) bool {
		if fr.owner[u] != fr.owner[v] {
			wantIn[v] = true
		}
		return true
	})
	gotIn := make(map[graph.NodeID]bool)
	for _, f := range fr.frags {
		for _, l := range f.inNodes {
			gotIn[f.Global(l)] = true
		}
	}
	if len(wantIn) != len(gotIn) {
		return fmt.Errorf("fragment: in-node count mismatch: want %d got %d", len(wantIn), len(gotIn))
	}
	for v := range wantIn {
		if !gotIn[v] {
			return fmt.Errorf("fragment: node %d should be an in-node", v)
		}
	}
	return nil
}
