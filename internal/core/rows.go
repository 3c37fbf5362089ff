package core

import (
	"math"
	"math/bits"
	"slices"

	"distreach/internal/bes"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Weighted boundary rows: the part of a fragment's answer to qr and qbr
// that depends on the fragment alone. For every in-node v, the frontier-cut
// BFS of localEvald (stop at every boundary node) with no target and no
// bound gives
//
//	Xv <= Xb + dist(v, b)   for every boundary node b the cut reaches,
//
// which is a distance row and — weights ignored — a reachability row too.
// A wire site ships these once per fragment state (internal/netsite); the
// query parts ride beside them: SourceOnlyReach/TargetOnlyReach for qr,
// DistQueryPart for qbr.

// NoConst marks an equation of Rows without a constant term.
const NoConst = -1

// unbounded is the distance bound of rows that no query prunes.
const unbounded = math.MaxInt32

// Rows is a list of weighted equations stored flat: equation i is
//
//	X(nodes[i]) <= min(cons[i], min over j of X(vars[j]) + ws[j])
//
// for j in offs[i]:offs[i+1], with cons[i] = NoConst when there is no
// constant term. A fragment's rows (LocalRows) have none; a distance query
// part (DistQueryPart) carries the constants that say where t is.
type Rows struct {
	nodes []graph.NodeID
	cons  []int32
	offs  []uint32 // len(nodes)+1 entries once an equation was added
	vars  []graph.NodeID
	ws    []int32
}

// add appends one equation, copying its terms.
func (rv *Rows) add(node graph.NodeID, cons int32, vars []graph.NodeID, ws []int32) {
	if len(rv.offs) == 0 {
		rv.offs = append(rv.offs, 0)
	}
	rv.nodes = append(rv.nodes, node)
	rv.cons = append(rv.cons, cons)
	rv.vars = append(rv.vars, vars...)
	rv.ws = append(rv.ws, ws...)
	rv.offs = append(rv.offs, uint32(len(rv.vars)))
}

// NumEqs reports the number of equations (none for nil).
func (rv *Rows) NumEqs() int {
	if rv == nil {
		return 0
	}
	return len(rv.nodes)
}

// Eq returns equation i: its node, its constant term (NoConst: none), and
// its variables with their weights. The slices alias the storage and must
// not be modified.
func (rv *Rows) Eq(i int) (node graph.NodeID, cons int32, vars []graph.NodeID, ws []int32) {
	lo, hi := rv.offs[i], rv.offs[i+1]
	return rv.nodes[i], rv.cons[i], rv.vars[lo:hi], rv.ws[lo:hi]
}

// AddToSystemFrom feeds the rows into a Boolean equation system as the
// contribution of the given site, weights dropped: Xnode = (a constant
// term) ∨ (∨ vars). It is the reachability reading of the rows, the
// reference the wire coordinator's reach walk is checked against.
func (rv *Rows) AddToSystemFrom(site int, sys *bes.System[graph.NodeID]) {
	for i := 0; i < rv.NumEqs(); i++ {
		node, cons, vars, _ := rv.Eq(i)
		sys.Claim(site, node)
		sys.Add(node, cons != NoConst, vars...)
	}
}

// HasConst reports whether any equation has a constant term.
func (rv *Rows) HasConst() bool {
	for i := 0; i < rv.NumEqs(); i++ {
		if rv.cons[i] != NoConst {
			return true
		}
	}
	return false
}

// LocalRows returns f's weighted in-node rows, one equation per in-node,
// in node order — an in-node that reaches no boundary node gets an empty
// one, so that whoever solves over the rows sees which fragment owns it.
// It returns nil when opt.Cancel fires.
func LocalRows(f *fragment.Fragment, opt *Options) *Rows {
	in := slices.Clone(f.InNodes())
	slices.SortFunc(in, func(a, b int32) int { return int(f.Global(a)) - int(f.Global(b)) })
	rv := &Rows{
		nodes: make([]graph.NodeID, 0, len(in)),
		cons:  make([]int32, 0, len(in)),
		offs:  make([]uint32, 1, len(in)+1),
	}
	var bfs cutRows
	for lo := 0; lo < len(in); lo += 64 {
		src := in[lo:min(lo+64, len(in))]
		if !bfs.from(f, src, opt) {
			return nil
		}
		for i, v := range src {
			rv.add(f.Global(v), NoConst, bfs.vars[i], bfs.ws[i])
		}
	}
	return rv
}

// cutRows is cutDist with no target and no bound, run from up to 64
// sources at once: bit i of a node's words stands for source i, so one
// pass over a level's frontier advances every source's BFS. It gives each
// source the terms cutDist.from gives it, though not in the same order.
type cutRows struct {
	seen, cur, next []uint64
	front, after    []int32
	vars            [64][]graph.NodeID
	ws              [64][]int32
}

// from runs the cut BFS from the distinct local nodes src (at most 64);
// afterwards vars[i] and ws[i] hold src[i]'s terms. It polls opt.Cancel
// every few hundred expanded nodes and reports false when it fires.
func (b *cutRows) from(f *fragment.Fragment, src []int32, opt *Options) bool {
	if b.seen == nil {
		n := f.NumTotal()
		b.seen, b.cur, b.next = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	}
	clear(b.seen)
	front := b.front[:0]
	for i, v := range src {
		b.vars[i], b.ws[i] = b.vars[i][:0], b.ws[i][:0]
		b.seen[v] |= 1 << i
		b.cur[v] |= 1 << i
		front = append(front, v)
	}
	polled := 0
	for d := int32(0); len(front) > 0; d++ {
		after := b.after[:0]
		for _, x := range front {
			word := b.cur[x]
			b.cur[x] = 0
			if d > 0 && f.IsBoundary(x) {
				g := f.Global(x)
				for m := word; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					b.vars[i] = append(b.vars[i], g)
					b.ws[i] = append(b.ws[i], d)
				}
				continue
			}
			if polled++; polled&0xff == 0 && opt.cancelled() {
				clear(b.cur)
				clear(b.next)
				return false
			}
			for _, w := range f.Out(x) {
				if nb := word &^ b.seen[w]; nb != 0 {
					b.seen[w] |= nb
					if b.next[w] == 0 {
						after = append(after, w)
					}
					b.next[w] |= nb
				}
			}
		}
		b.cur, b.next = b.next, b.cur
		b.front, b.after = after, front
		front = after
	}
	return true
}

// DistQueryPart returns what f adds to its rows for qbr(s, t, l): s's own
// equation when f stores s as a node that is not an in-node (an in-node's
// is among the rows), pruned as localEvald prunes it — variables at
// distance below l, t as a constant within l — and Xv <= dist(v, t) for the
// in-nodes v whose frontier cut meets t within l, when f stores t as a node
// that is not a boundary node. (Where t is a boundary node the rows already
// end at Xt, and the coordinator knows Xt = 0.) Together with every
// fragment's rows it gives dist(s, t) whenever that is at most l.
//
// It returns nil when there is nothing to say, and when opt.Cancel fires;
// callers under cooperative cancellation re-check their flag, as for
// SourceOnlyReach.
func DistQueryPart(f *fragment.Fragment, s, t graph.NodeID, l int, opt *Options) *Rows {
	var rv *Rows
	var bfs cutDist
	if ls, ok := f.Local(s); ok && !f.IsVirtual(ls) && !f.IsInNode(ls) {
		if !bfs.from(f, ls, t, l, opt) {
			return nil
		}
		// Emitted even when empty: it says which fragment s's closure
		// starts in.
		rv = new(Rows)
		rv.add(s, bfs.cons, bfs.vars, bfs.ws)
	}
	if lt, ok := f.Local(t); ok && !f.IsBoundary(lt) {
		for _, v := range f.InNodes() {
			if !bfs.from(f, v, t, l, opt) {
				return nil
			}
			if bfs.cons != NoConst {
				if rv == nil {
					rv = new(Rows)
				}
				rv.add(f.Global(v), bfs.cons, nil, nil)
			}
		}
	}
	return rv
}

// cutDist is the frontier-cut BFS of localEvald, written once for the rows,
// the distance query parts and LocalEvalDist. Its scratch is reused across
// the sources of one evaluation; after from, cons, vars and ws hold the
// source's terms until the next call.
type cutDist struct {
	dist    []int32
	queue   []int32
	touched []int32
	cons    int32
	vars    []graph.NodeID
	ws      []int32
}

// from runs the cut BFS from local node v for target t (graph.None: none)
// under bound l: t reached at distance d <= l is the constant d and closes
// its branch; a boundary node b at distance d < l is the term Xb + d and
// closes its branch; nothing at depth l or beyond is expanded. It polls
// opt.Cancel every few hundred dequeues and reports false when it fires.
func (b *cutDist) from(f *fragment.Fragment, v int32, t graph.NodeID, l int, opt *Options) bool {
	if b.dist == nil {
		b.dist = make([]int32, f.NumTotal())
		for i := range b.dist {
			b.dist[i] = -1
		}
	}
	b.cons, b.vars, b.ws = NoConst, b.vars[:0], b.ws[:0]
	b.dist[v] = 0
	queue := append(b.queue[:0], v)
	for head := 0; head < len(queue); head++ {
		if head&0xff == 0xff && opt.cancelled() {
			b.reset(queue)
			return false
		}
		x := queue[head]
		d := b.dist[x]
		if x != v {
			switch g := f.Global(x); {
			case g == t:
				// BFS finds the nearest occurrence of t first.
				if int(d) <= l {
					b.cons = d
				}
				continue
			case f.IsBoundary(x):
				if int(d) < l {
					b.vars = append(b.vars, g)
					b.ws = append(b.ws, d)
				}
				continue
			}
		}
		if int(d) >= l {
			continue
		}
		for _, w := range f.Out(x) {
			if b.dist[w] < 0 {
				b.dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	b.reset(queue)
	return true
}

// reset clears the distances of the nodes one search reached.
func (b *cutDist) reset(queue []int32) {
	for _, x := range queue {
		b.dist[x] = -1
	}
	b.queue = queue
}
