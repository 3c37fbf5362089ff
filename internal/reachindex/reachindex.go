// Package reachindex implements a budgeted per-fragment reachability
// index over the fragment's condensation DAG: the interval labels of
// Seufert et al., "High-Performance Reachability Query Processing under
// Index Size Restrictions" (PAPERS.md), which answer "u reaches v locally"
// in O(log labels). The labels are computed under one byte budget;
// whatever does not fit stays undecided and the caller falls back to a
// search of the fragment.
//
// The index stores two things, over the SCC condensation of the fragment's
// own adjacency (slots are the fragment's local indices):
//
//   - a DFS spanning forest of the condensation with postorder numbers:
//     each SCC's own subtree is one interval [low, post];
//   - per-SCC merged interval labels: label(c) covers exactly the
//     postorder numbers of the SCCs reachable from c (own subtree plus
//     the union of the successors' labels, coalesced). Membership of
//     post(d) in label(c) decides c ⇝ d.
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
// ancestor cone of u's SCC stale (exactly the sources whose reachable set
// may have changed); stale SCCs answer undecided and the caller falls
// back until an asynchronous rebuild installs a fresh index — the same
// swap-while-serving discipline the rebalance ('R') path uses.
//
// Concurrency contract: MarkDirty must run while the caller excludes
// readers (the Fragmentation write lock); Reaches may run concurrently
// with itself under the matching read lock. The index counts nothing: the
// fragment that installed it counts its probes.
package reachindex

import (
	"sort"
	"sync/atomic"
)

// DefaultBudget is the per-fragment label budget in bytes. Labels beyond
// it stay undecided.
const DefaultBudget = 4 << 20

// Spec is the input to Build.
type Spec struct {
	// N is the slot count and Out the slots' out-adjacency (a fragment's
	// NumTotal and Out); Comp is its SCC decomposition with components
	// numbered from 0 (as from LocalSCC), which the index keeps: nobody may
	// modify it afterwards.
	N    int
	Out  func(l int32) []int32
	Comp []int32
	// Budget caps label bytes; <= 0 means DefaultBudget.
	Budget int64
}

// Index is one fragment's reachability index. See the package comment for
// the structure and the concurrency contract.
type Index struct {
	n int // slot count at build time; later slots are undecided

	comp      []int32   // build-time SCC of every slot
	dagIn     [][]int32 // deduplicated reverse condensation adjacency
	post      []int32   // DFS-forest postorder number per SCC
	ivals     []int32   // flattened [lo,hi] interval pairs, all SCCs
	ivOff     []int32   // per-SCC offsets into ivals (len nc+1)
	undecided []bool    // label over budget (or transitively undecided)
	bytes     int64

	stale    []bool // mutated via MarkDirty under the external write lock
	anyStale atomic.Bool
}

// Build computes the index. It reads spec.Out but retains nothing from it;
// the returned index is immutable except for staleness.
func Build(spec Spec) *Index {
	comp := spec.Comp
	nc := 0
	for _, c := range comp {
		nc = max(nc, int(c)+1)
	}
	budget := spec.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	ix := &Index{
		n:         spec.N,
		comp:      comp,
		undecided: make([]bool, nc),
		stale:     make([]bool, nc),
	}

	dagOut := buildCondensation(ix, spec, nc)
	post, sz := dfsForest(dagOut, nc)
	ix.post = post

	// order[i] is the SCC with postorder number i: increasing index is a
	// successors-first processing order (in a DAG every edge (c,d) has
	// post[d] < post[c]).
	order := make([]int32, nc)
	for c := int32(0); int(c) < nc; c++ {
		order[post[c]] = c
	}
	ix.bytes = buildLabels(ix, dagOut, post, sz, order, nc, budget)
	return ix
}

// buildCondensation assembles the deduplicated condensation DAG, both
// directions: forward for the DFS forest and label propagation, reverse
// for MarkDirty's ancestor walk. Adjacency lists keep first-occurrence
// order of a scan in node order.
func buildCondensation(ix *Index, spec Spec, nc int) [][]int32 {
	comp := spec.Comp
	dagOut := make([][]int32, nc)
	ix.dagIn = make([][]int32, nc)
	seen := make(map[int64]struct{})
	for u := int32(0); int(u) < spec.N; u++ {
		cu := comp[u]
		for _, w := range spec.Out(u) {
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

// Outcome is the index's verdict on one probe: whether the labels
// decided it, and if not, why — the reason a traced evaluation tags its
// eval span with.
type Outcome uint8

const (
	// OutcomeHit: the labels decided the probe.
	OutcomeHit Outcome = iota
	// OutcomeUnslotted: a slot postdates the build (node added since).
	OutcomeUnslotted
	// OutcomeStale: a mutation invalidated the source's SCC cone.
	OutcomeStale
	// OutcomeOverBudget: the label budget excluded the source's SCC
	// label, or one it depends on.
	OutcomeOverBudget
	// OutcomeNoIndex: no index was installed to probe.
	OutcomeNoIndex
)

// Reaches reports whether slot u reaches slot v locally. reached is
// meaningful only when out is OutcomeHit; any other outcome says why the
// labels cannot answer: a slot postdates the build, or u's SCC is stale or
// over budget.
func (ix *Index) Reaches(u, v int32) (reached bool, out Outcome) {
	if u < 0 || int(u) >= ix.n || v < 0 || int(v) >= ix.n {
		return false, OutcomeUnslotted
	}
	c := ix.comp[u]
	switch {
	case ix.stale[c]:
		return false, OutcomeStale
	case ix.undecided[c]:
		return false, OutcomeOverBudget
	}
	d := ix.comp[v]
	return c == d || ix.contains(c, ix.post[d]), OutcomeHit
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

// LabelBytes reports the bytes charged against the budget.
func (ix *Index) LabelBytes() int64 { return ix.bytes }
