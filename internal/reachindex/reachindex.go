// Package reachindex implements a budgeted per-fragment reachability
// index over the fragment's condensation DAG, in the spirit of Seufert et
// al., "High-Performance Reachability Query Processing under Index Size
// Restrictions" (PAPERS.md): interval/tree labels answer "u reaches v
// locally" in O(log labels), and a per-in-node-SCC precomputed frontier
// cut turns the whole local evaluation of a reachability query into table
// lookups. Everything is computed under one global byte budget; whatever
// does not fit stays undecided and falls back to direct evaluation.
//
// The index stores three things, all over the SCC condensation of the
// fragment-local graph (slots are the fragment's local indices):
//
//   - a DFS spanning forest of the condensation with postorder numbers:
//     each SCC's own subtree is one interval [low, post];
//   - per-SCC merged interval labels: label(c) covers exactly the
//     postorder numbers of the SCCs reachable from c (own subtree plus
//     the union of the successors' labels, coalesced). Membership of
//     post(d) in label(c) decides c ⇝ d;
//   - per-source-SCC frontier lists: for each in-node SCC, the boundary
//     slots its frontier-cut BFS would emit — the exact variable list of
//     the Boolean equation core.localEval produces, which is target-
//     independent (the target only flips the constTrue bit, and that is
//     what the interval labels answer). This is what lets a query skip
//     the per-in-node BFS entirely.
//
// The build runs on the calling goroutine: one pass over the SCCs in DFS
// postorder (successors first) computes each label from its successors'
// and charges the byte budget in the same order, so the output is a pure
// function of the spec. Fragments build concurrently, one builder each
// (internal/fragment), which already keeps the cores busy; parallel
// reachability (Jambulapati, Liu and Sidford; PAPERS.md) is the reference
// should a single build ever need more than one core. Nothing about the
// index is persisted; it is a cache of the fragment and is rebuilt from
// it whenever it goes stale or the process restarts.
//
// Incremental maintenance is staleness-based: MarkDirty(u) marks the
// ancestor cone of u's SCC stale (exactly the sources whose reachable
// set, hence equation, may have changed); stale SCCs answer !ok and the
// caller falls back to direct evaluation until an asynchronous rebuild
// installs a fresh index — the same swap-while-serving discipline the
// rebalance ('R') path uses.
//
// Concurrency contract: MarkDirty must run while the caller excludes
// readers (the Fragmentation write lock); EquationGlobal/Reaches may run
// concurrently with each other under the matching read lock. The counters
// are atomic and may be read at any time.
package reachindex

import (
	"sort"
	"sync/atomic"

	"distreach/internal/graph"
)

// DefaultBudget is the per-fragment label budget in bytes. Labels plus
// frontier lists beyond it stay undecided and fall back to direct
// evaluation.
const DefaultBudget = 4 << 20

// Spec is the input to Build.
type Spec struct {
	// Graph is the fragment-local graph (slots as node IDs) the index is
	// computed over; Comp/NC its SCC decomposition (as from LocalSCC).
	Graph *graph.Graph
	Comp  []int32
	NC    int
	// Boundary reports whether a slot is a boundary node (virtual node or
	// in-node) — where the frontier-cut BFS stops. Nil disables frontier
	// precomputation (labels only).
	Boundary func(l int32) bool
	// Sources are the slots (in-nodes) whose SCCs get precomputed
	// frontier lists.
	Sources []int32
	// Budget caps label + frontier bytes; <= 0 means DefaultBudget.
	Budget int64
}

// Index is one fragment's reachability index. See the package comment for
// the structure and the concurrency contract.
type Index struct {
	n  int // slot count at build time; later slots are undecided
	nc int

	comp      []int32   // build-time SCC of every slot
	dagIn     [][]int32 // deduplicated reverse condensation adjacency
	post      []int32   // DFS-forest postorder number per SCC
	ivals     []int32   // flattened [lo,hi] interval pairs, all SCCs
	ivOff     []int32   // per-SCC offsets into ivals (len nc+1)
	undecided []bool    // label over budget (or transitively undecided)
	fronts    [][]int32 // per-SCC frontier slot lists; nil = not stored
	// gfronts mirrors fronts with the slots mapped to global node IDs
	// (PrecomputeGlobals); EquationGlobal hands these out by reference so
	// the hot path never copies or re-maps a variable list.
	gfronts [][]graph.NodeID
	bytes   int64

	stale    []bool // mutated via MarkDirty under the external write lock
	anyStale atomic.Bool

	hits, fallbacks atomic.Int64
}

// Build computes the index. It reads spec.Graph but retains nothing from
// it; the returned index is immutable except for staleness and counters.
func Build(spec Spec) *Index {
	g, comp, nc := spec.Graph, spec.Comp, spec.NC
	n := g.NumNodes()
	budget := spec.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	ix := &Index{
		n:         n,
		nc:        nc,
		comp:      append([]int32(nil), comp...),
		undecided: make([]bool, nc),
		stale:     make([]bool, nc),
		fronts:    make([][]int32, nc),
	}

	dagOut := buildCondensation(ix, g, comp, nc)
	post, sz := dfsForest(dagOut, nc)
	ix.post = post

	// order[i] is the SCC with postorder number i: increasing index is a
	// successors-first processing order (in a DAG every edge (c,d) has
	// post[d] < post[c]).
	order := make([]int32, nc)
	for c := int32(0); int(c) < nc; c++ {
		order[post[c]] = c
	}
	used := buildLabels(ix, dagOut, post, sz, order, nc, budget)
	used = buildFrontiers(ix, g, comp, spec, n, budget, used)
	ix.bytes = used
	return ix
}

// buildCondensation assembles the deduplicated condensation DAG, both
// directions: forward for the DFS forest and label propagation, reverse
// for MarkDirty's ancestor walk. Adjacency lists keep first-occurrence
// order of a scan in node order.
func buildCondensation(ix *Index, g *graph.Graph, comp []int32, nc int) [][]int32 {
	dagOut := make([][]int32, nc)
	ix.dagIn = make([][]int32, nc)
	seen := make(map[int64]struct{})
	for u := 0; u < g.NumNodes(); u++ {
		if g.Deleted(graph.NodeID(u)) {
			continue
		}
		cu := comp[u]
		for _, w := range g.Out(graph.NodeID(u)) {
			cw := comp[w]
			if cu == cw {
				continue
			}
			key := int64(cu)<<32 | int64(uint32(cw))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			dagOut[cu] = append(dagOut[cu], cw)
			ix.dagIn[cw] = append(ix.dagIn[cw], cu)
		}
	}
	return dagOut
}

// dfsForest computes a DFS spanning forest of the condensation with
// postorder numbers and subtree sizes: each SCC's tree subtree is the
// contiguous postorder block [post-size+1, post].
func dfsForest(dagOut [][]int32, nc int) (post, sz []int32) {
	post = make([]int32, nc)
	sz = make([]int32, nc)
	visited := make([]bool, nc)
	next := int32(0)
	type dfsFrame struct {
		c  int32
		ei int
	}
	var stack []dfsFrame
	for r := 0; r < nc; r++ {
		if visited[r] {
			continue
		}
		visited[r] = true
		stack = append(stack[:0], dfsFrame{int32(r), 0})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.ei < len(dagOut[fr.c]) {
				d := dagOut[fr.c][fr.ei]
				fr.ei++
				if !visited[d] {
					visited[d] = true
					stack = append(stack, dfsFrame{d, 0})
				}
				continue
			}
			post[fr.c] = next
			next++
			sz[fr.c] += 1
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				sz[stack[len(stack)-1].c] += sz[fr.c]
			}
		}
	}
	return post, sz
}

// buildLabels computes the per-SCC merged interval labels in one pass in
// postorder, charging the budget as it goes. An SCC is undecided when a
// successor is (its label would be uncomputable) or its label does not fit
// the remaining budget; undecidedness thus propagates to all ancestors, so
// fallback stays sound, and no label is ever merged from an undecided one.
func buildLabels(ix *Index, dagOut [][]int32, post, sz, order []int32, nc int, budget int64) int64 {
	labels := make([][]int32, nc)
	var used int64
	for _, c := range order {
		und := false
		est := 2
		for _, d := range dagOut[c] {
			if ix.undecided[d] {
				und = true
				break
			}
			est += len(labels[d])
		}
		if !und {
			ivs := make([]int32, 0, est)
			ivs = append(ivs, post[c]-sz[c]+1, post[c])
			for _, d := range dagOut[c] {
				ivs = append(ivs, labels[d]...)
			}
			ivs = mergeIntervals(ivs)
			if cost := int64(len(ivs)) * 4; used+cost <= budget {
				used += cost
				labels[c] = ivs
				continue
			}
		}
		ix.undecided[c] = true
	}
	ix.ivOff = make([]int32, nc+1)
	total := 0
	for c := 0; c < nc; c++ {
		ix.ivOff[c] = int32(total)
		total += len(labels[c])
	}
	ix.ivOff[nc] = int32(total)
	ix.ivals = make([]int32, 0, total)
	for c := 0; c < nc; c++ {
		ix.ivals = append(ix.ivals, labels[c]...)
	}
	return used
}

// buildFrontiers computes the frontier lists for the source (in-node)
// SCCs: the boundary slots the frontier-cut BFS of core.localEval would
// emit — query-independent, so computed once here and shared by every
// query. Lists are charged against the budget in the labels' postorder.
func buildFrontiers(ix *Index, g *graph.Graph, comp []int32, spec Spec, n int, budget, used int64) int64 {
	if spec.Boundary == nil || len(spec.Sources) == 0 {
		return used
	}
	type task struct {
		c    int32
		seed int32
	}
	var tasks []task
	taken := make(map[int32]bool, len(spec.Sources))
	for _, s := range spec.Sources {
		if s < 0 || int(s) >= n {
			continue
		}
		c := comp[s]
		if !taken[c] {
			taken[c] = true
			tasks = append(tasks, task{c: c, seed: s})
		}
	}
	// One task per SCC, so the order is total.
	sort.Slice(tasks, func(i, j int) bool { return ix.post[tasks[i].c] < ix.post[tasks[j].c] })
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	queue := make([]int32, 0, n)
	for i, tk := range tasks {
		row := frontierOf(g, comp, spec.Boundary, tk.seed, tk.c, seen, int32(i), queue)
		cost := int64(len(row))*4 + 16
		if used+cost > budget {
			continue // undecided frontier: queries from this SCC fall back
		}
		used += cost
		if row == nil {
			row = emptyFront // present-but-empty, distinct from not stored
		}
		ix.fronts[tk.c] = row
	}
	return used
}

// emptyFront marks a stored frontier that happens to be empty (the source
// SCC reaches no boundary outside itself) — non-nil so lookup code can
// tell it apart from "not stored under the budget".
var emptyFront = []int32{}

// emptyGFront is emptyFront's global-ID counterpart.
var emptyGFront = []graph.NodeID{}

// PrecomputeGlobals materializes the frontier lists in global node IDs via
// the fragment's slot-to-global mapping, letting EquationGlobal return
// equation bodies by reference with zero per-query mapping work. Call once
// after Build, before the index starts serving.
func (ix *Index) PrecomputeGlobals(global func(l int32) graph.NodeID) {
	ix.gfronts = make([][]graph.NodeID, ix.nc)
	for c, row := range ix.fronts {
		if row == nil {
			continue
		}
		if len(row) == 0 {
			ix.gfronts[c] = emptyGFront
			continue
		}
		g := make([]graph.NodeID, len(row))
		for i, s := range row {
			g[i] = global(s)
		}
		ix.gfronts[c] = g
	}
}

// frontierOf runs one frontier-cut BFS from seed (a member of SCC c):
// expand through everything in c (boundary or not) and through interior
// nodes, stop at boundary slots outside c and collect them. The result is
// sorted for determinism. seen is a stamped visit buffer reused across
// calls.
func frontierOf(g *graph.Graph, comp []int32, boundary func(int32) bool, seed, c int32, seen []int32, stamp int32, queue []int32) []int32 {
	queue = append(queue[:0], seed)
	seen[seed] = stamp
	var out []int32
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		if x != seed && boundary(x) && comp[x] != c {
			out = append(out, x)
			continue
		}
		for _, w := range g.Out(graph.NodeID(x)) {
			if seen[w] != stamp {
				seen[w] = stamp
				queue = append(queue, int32(w))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeIntervals sorts [lo,hi] pairs by lo and coalesces overlapping or
// adjacent ones.
func mergeIntervals(ivs []int32) []int32 {
	m := len(ivs) / 2
	if m <= 1 {
		return ivs
	}
	ord := make([]int, m)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return ivs[2*ord[a]] < ivs[2*ord[b]] })
	out := make([]int32, 0, len(ivs))
	for _, i := range ord {
		lo, hi := ivs[2*i], ivs[2*i+1]
		if len(out) > 0 && lo <= out[len(out)-1]+1 {
			if hi > out[len(out)-1] {
				out[len(out)-1] = hi
			}
			continue
		}
		out = append(out, lo, hi)
	}
	return out
}

// contains reports whether postorder number p lies in SCC c's label.
func (ix *Index) contains(c, p int32) bool {
	ivs := ix.ivals[ix.ivOff[c]:ix.ivOff[c+1]]
	j := sort.Search(len(ivs)/2, func(i int) bool { return ivs[2*i] > p }) - 1
	return j >= 0 && p <= ivs[2*j+1]
}

// EquationGlobal returns the precomputed Boolean-equation body for source
// slot v: the frontier-cut variable list, mapped to global node IDs by
// PrecomputeGlobals and shared (callers must treat it as read-only), and
// whether v reaches the target locally. tLocal is the target's local slot
// when the target maps into this fragment (hasT); a tLocal at or past the
// build-time slot count reports reachesT=false, which is exact for an
// unstale source: slots appended after the build only ever gain incoming
// edges, and gaining one marks its source's cone stale.
//
// ok is false — and the caller must fall back to direct evaluation — when
// v postdates the build, its SCC is stale or undecided, its frontier was
// not stored under the budget, or PrecomputeGlobals has not run.
func (ix *Index) EquationGlobal(v, tLocal int32, hasT bool) (vars []graph.NodeID, reachesT, ok bool) {
	if v < 0 || int(v) >= ix.n || ix.gfronts == nil {
		ix.fallbacks.Add(1)
		return nil, false, false
	}
	c := ix.comp[v]
	if ix.stale[c] || ix.undecided[c] {
		ix.fallbacks.Add(1)
		return nil, false, false
	}
	gvars := ix.gfronts[c]
	if gvars == nil {
		ix.fallbacks.Add(1)
		return nil, false, false
	}
	if hasT && tLocal >= 0 && int(tLocal) < ix.n {
		d := ix.comp[tLocal]
		reachesT = c == d || ix.contains(c, ix.post[d])
	}
	ix.hits.Add(1)
	return gvars, reachesT, true
}

// Outcome classifies why EquationGlobal would (or would not)
// answer for source slot v — the observability counterpart of the
// fallback branches above, in the same order, so a traced evaluation can
// tag its eval span with the reason the index was bypassed. Reading the
// same fields the lookup reads, it must be called under the same
// fragmentation read lock; it touches no hit counters.
func (ix *Index) Outcome(v int32) Outcome {
	if v < 0 || int(v) >= ix.n {
		return OutcomeUnslotted
	}
	c := ix.comp[v]
	if ix.stale[c] {
		return OutcomeStale
	}
	if ix.undecided[c] || ix.fronts[c] == nil {
		return OutcomeOverBudget
	}
	return OutcomeHit
}

// Outcome is the index's answerability verdict for one source slot.
type Outcome uint8

const (
	// OutcomeHit: the index answers this slot's equation in two lookups.
	OutcomeHit Outcome = iota
	// OutcomeUnslotted: the slot postdates the build (node added since).
	OutcomeUnslotted
	// OutcomeStale: a mutation invalidated the slot's SCC cone.
	OutcomeStale
	// OutcomeOverBudget: the label budget excluded the SCC's frontier, or
	// the entry is undecided mid-rebuild.
	OutcomeOverBudget
)

// Reaches reports whether slot u reaches slot v locally. decided is false
// (and reached meaningless) when the index cannot answer: a slot postdates
// the build, or u's SCC is stale or undecided.
func (ix *Index) Reaches(u, v int32) (reached, decided bool) {
	if u < 0 || int(u) >= ix.n || v < 0 || int(v) >= ix.n {
		return false, false
	}
	c := ix.comp[u]
	if ix.stale[c] || ix.undecided[c] {
		return false, false
	}
	d := ix.comp[v]
	if c == d {
		return true, true
	}
	return ix.contains(c, ix.post[d]), true
}

// MarkDirty marks the labels invalidated by a mutation at slot u: the
// ancestor cone of u's SCC in the build-time condensation — exactly the
// sources whose reachable set may now differ. A slot outside the
// build-time range (or a negative one, the caller's "everything changed"
// signal) marks the whole index stale. Must run while the caller excludes
// index readers (the Fragmentation write lock).
func (ix *Index) MarkDirty(u int32) {
	if ix == nil {
		return
	}
	ix.anyStale.Store(true)
	if u < 0 || int(u) >= ix.n {
		for c := range ix.stale {
			ix.stale[c] = true
		}
		return
	}
	c := ix.comp[u]
	if ix.stale[c] {
		return // the stale set is ancestor-closed: cone already marked
	}
	ix.stale[c] = true
	queue := []int32{c}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range ix.dagIn[x] {
			if !ix.stale[p] {
				ix.stale[p] = true
				queue = append(queue, p)
			}
		}
	}
}

// AnyStale reports whether any label has been invalidated since the build.
func (ix *Index) AnyStale() bool { return ix.anyStale.Load() }

// LabelBytes reports the bytes charged against the budget (interval labels
// plus frontier lists).
func (ix *Index) LabelBytes() int64 { return ix.bytes }

// Hits reports how many EquationGlobal calls were answered from the index.
func (ix *Index) Hits() int64 { return ix.hits.Load() }

// Fallbacks reports how many EquationGlobal calls could not be answered.
func (ix *Index) Fallbacks() int64 { return ix.fallbacks.Load() }
