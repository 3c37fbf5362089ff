package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"distreach/internal/bes"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Rows is the one equation list of all three query classes: every partial
// answer of disReach, disDist and disRPQ, on the wire and in the
// simulation. A reachability list is Boolean — Xv = (t reached locally) ∨
// (∨ Xv') — and carries no weights; a distance list is min-plus — Xv <=
// min(dist(v, t), min over v' of Xv' + dist(v, v')) — and carries one
// weight per variable. Read with its weights ignored, a distance list is a
// reachability list too, which is how the wire coordinator's reach walk
// reads a fragment's boundary rows: for every in-node v, the frontier-cut
// BFS of localEvald (stop at every boundary node) with no target and no
// bound gives
//
//	Xv <= Xb + dist(v, b)   for every boundary node b the cut reaches.
//
// A wire site ships these once per fragment state (internal/netsite); the
// query parts ride beside them: SourceOnlyReach/TargetOnlyReach for qr,
// DistQueryPart for qbr. A qrr partial (LocalEvalRPQ) is a Boolean list
// over product variables X(v, u), "node v matches automaton state u",
// keyed v·|Vq| + u (rpqKey).

// NoConst marks an equation of Rows without a constant term.
const NoConst = -1

// Inf is the distance of a target no path within the bound reaches.
const Inf = bes.Inf

// unbounded is the distance bound of rows that no query prunes.
const unbounded = math.MaxInt32

// Rows is a list of equations stored flat: equation i is
//
//	X(nodes[i]) <= min(cons[i], min over j of X(vars[j]) + ws[j])
//
// for j in offs[i]:offs[i+1], with cons[i] = NoConst when there is no
// constant term. An unweighted (Boolean) list has no ws, and its constants
// are 0: X(nodes[i]) = (cons[i] != NoConst) ∨ (∨ X(vars[j])). The zero
// value is an empty Boolean list. A fragment's rows (LocalRows) have no
// constants; a distance query part (DistQueryPart) carries the constants
// that say where t is. Each equation's terms are strictly ascending by node
// (add sorts them), which the codec's gap coding relies on.
type Rows struct {
	weighted bool
	nodes    []graph.NodeID
	cons     []int32
	offs     []uint32 // len(nodes)+1 entries once an equation was added
	vars     []graph.NodeID
	ws       []int32 // parallel to vars; nil unless weighted
}

// ReachPartial, DistPartial and RPQPartial are the names the partials of
// qr, qbr and qrr had when each was a type of its own; benchmark/layers.go
// still names them, and they go once it says Rows.
type (
	ReachPartial = Rows
	DistPartial  = Rows
	RPQPartial   = Rows
)

// newRows returns an empty list with room for n equations.
func newRows(n int, weighted bool) *Rows {
	return &Rows{
		weighted: weighted,
		nodes:    make([]graph.NodeID, 0, n),
		cons:     make([]int32, 0, n),
		offs:     make([]uint32, 1, n+1),
	}
}

// truthCons is a Boolean equation's constant term: 0 (true) or none.
func truthCons(truth bool) int32 {
	if truth {
		return 0
	}
	return NoConst
}

// add appends one equation, copying its terms in ascending order; ws is
// ignored unless the list is weighted.
func (rv *Rows) add(node graph.NodeID, cons int32, vars []graph.NodeID, ws []int32) {
	if len(rv.offs) == 0 {
		rv.offs = append(rv.offs, 0)
	}
	rv.nodes = append(rv.nodes, node)
	rv.cons = append(rv.cons, cons)
	lo := len(rv.vars)
	rv.vars = append(rv.vars, vars...)
	if rv.weighted {
		rv.ws = append(rv.ws, ws...)
	}
	switch {
	case slices.IsSorted(rv.vars[lo:]):
	case rv.weighted:
		// Sort the terms packed with their (non-negative) weights.
		var buf [64]uint64
		terms := buf[:0]
		for j, v := range rv.vars[lo:] {
			terms = append(terms, uint64(v)<<32|uint64(rv.ws[lo+j]))
		}
		slices.Sort(terms)
		for j, t := range terms {
			rv.vars[lo+j], rv.ws[lo+j] = graph.NodeID(t>>32), int32(uint32(t))
		}
	default:
		slices.Sort(rv.vars[lo:])
	}
	rv.offs = append(rv.offs, uint32(len(rv.vars)))
}

// Append adds the equations of more (nil: none), which must be weighted
// exactly when rv is.
func (rv *Rows) Append(more *Rows) {
	if more.NumEqs() > 0 && more.weighted != rv.weighted {
		panic("core: Rows.Append mixes weighted and unweighted equations")
	}
	for i := 0; i < more.NumEqs(); i++ {
		rv.add(more.Eq(i))
	}
}

// NumEqs reports the number of equations (none for nil).
func (rv *Rows) NumEqs() int {
	if rv == nil {
		return 0
	}
	return len(rv.nodes)
}

// NumTerms reports the number of terms over all equations (none for nil).
func (rv *Rows) NumTerms() int {
	if rv == nil {
		return 0
	}
	return len(rv.vars)
}

// Weighted reports whether the list carries a weight per variable (nil:
// no).
func (rv *Rows) Weighted() bool { return rv != nil && rv.weighted }

// Eq returns equation i: its node, its constant term (NoConst: none), and
// its variables with their weights (nil when unweighted). The slices alias
// the storage and must not be modified.
func (rv *Rows) Eq(i int) (node graph.NodeID, cons int32, vars []graph.NodeID, ws []int32) {
	lo, hi := rv.offs[i], rv.offs[i+1]
	if rv.weighted {
		ws = rv.ws[lo:hi]
	}
	return rv.nodes[i], rv.cons[i], rv.vars[lo:hi], ws
}

// AddToSystemFrom feeds the list into a Boolean equation system as the
// contribution of the given site (a negative site: on nobody's behalf),
// weights dropped: Xnode = (a constant term) ∨ (∨ vars). Feeding lists as
// they arrive and reading sys.Decide(s) for the answer and sys.Sources(s)
// for the sites the answer depends on never re-solves from scratch; it is
// the reference the wire coordinator's reach walk is checked against. A
// nil list adds nothing.
func (rv *Rows) AddToSystemFrom(site int, sys *bes.System[graph.NodeID]) {
	for i := 0; i < rv.NumEqs(); i++ {
		node, cons, vars, _ := rv.Eq(i)
		if site >= 0 {
			sys.Claim(site, node)
		}
		sys.Add(node, cons != NoConst, vars...)
	}
}

// AddToSystem is AddToSystemFrom for callers that only want the value of
// Xs, not who it depends on.
func (rv *Rows) AddToSystem(sys *bes.System[graph.NodeID]) {
	rv.AddToSystemFrom(-1, sys)
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

// ReachWireSize is the paper's reply size of f's reachability list rv.
// Each equation carries the in-node ID plus its disjuncts, encoded as
// whichever is smaller: a presence bitmap over the fragment's boundary
// variables, |Fi.O| + |Fi.I| of them (the paper's "|Fi.O| bits"
// accounting), or an explicit variable list. Either way the total stays
// within the O(|Vf|²) guarantee.
func ReachWireSize(f *fragment.Fragment, rv *Rows) int {
	dense := (f.NumVirtual() + len(f.InNodes()) + 1 + 7) / 8
	n := 0
	for i := 0; i < rv.NumEqs(); i++ {
		sparse := 4 * int(rv.offs[i+1]-rv.offs[i])
		n += 5 + min(sparse, dense)
	}
	return n
}

// distWireSize is the numeric analogue for a distance list: each equation
// carries the in-node ID plus a (variable ID, distance) pair per term, the
// constant included — still bounded by O(|Fi.I|·|Fi.O|) words.
func distWireSize(rv *Rows) int {
	n := 0
	for i := 0; i < rv.NumEqs(); i++ {
		terms := int(rv.offs[i+1] - rv.offs[i])
		if rv.cons[i] != NoConst {
			terms++
		}
		n += 4 + 8*terms
	}
	return n
}

// LocalRows returns f's weighted in-node rows, one equation per in-node,
// in node order — an in-node that reaches no boundary node gets an empty
// one, so that whoever solves over the rows sees which fragment owns it —
// each equation's terms in node order too. The rows are thus a function of
// the fragment's nodes and edges alone, not of its local numbering or of
// which in-nodes share a BFS: equal fragments give byte-identical rows,
// and Diff finds only the equations that really changed.
func LocalRows(f *fragment.Fragment) *Rows {
	in := slices.Clone(f.InNodes())
	slices.SortFunc(in, func(a, b int32) int { return int(f.Global(a)) - int(f.Global(b)) })
	rv := newRows(len(in), true)
	var bfs cutRows
	for lo := 0; lo < len(in); lo += 64 {
		src := in[lo:min(lo+64, len(in))]
		bfs.from(f, src)
		for i, v := range src {
			rv.add(f.Global(v), NoConst, bfs.vars[i], bfs.ws[i])
		}
	}
	return rv
}

// Equations is a list of equations read one at a time: a *Rows, or rows
// kept in another layout. The slices Eq returns may be overwritten by the
// next call.
type Equations interface {
	NumEqs() int
	NumTerms() int
	Eq(i int) (node graph.NodeID, cons int32, vars []graph.NodeID, ws []int32)
}

// RowsDelta is what turns one state of a fragment's rows into a later
// one: the equations whose head is new or whose terms changed, heads
// ascending, and the heads that are gone, ascending. An update changes a
// handful of a fragment's equations, so a delta costs bytes for what the
// update changed, not for the O(|Vf|²) rows.
type RowsDelta struct {
	Changed *Rows
	Dropped []graph.NodeID
}

// Diff returns the delta from old to cur, two weighted lists with heads
// ascending, as LocalRows gives them.
func Diff(old, cur *Rows) RowsDelta {
	d := RowsDelta{Changed: newRows(0, true)}
	i, j := 0, 0
	for i < old.NumEqs() || j < cur.NumEqs() {
		switch {
		case j == cur.NumEqs() || i < old.NumEqs() && old.nodes[i] < cur.nodes[j]:
			d.Dropped = append(d.Dropped, old.nodes[i])
			i++
		case i == old.NumEqs() || cur.nodes[j] < old.nodes[i]:
			d.Changed.add(cur.Eq(j))
			j++
		default:
			if !sameEq(old, i, cur, j) {
				d.Changed.add(cur.Eq(j))
			}
			i++
			j++
		}
	}
	return d
}

// sameEq reports whether equation i of a and equation j of b have the same
// constant and terms.
func sameEq(a *Rows, i int, b *Rows, j int) bool {
	_, ca, va, wa := a.Eq(i)
	_, cb, vb, wb := b.Eq(j)
	return ca == cb && slices.Equal(va, vb) && slices.Equal(wa, wb)
}

// Patch returns base with d applied: base's equations, heads ascending,
// with every changed equation put in (replacing base's for its head) and
// every dropped head taken out. Applied to rows at one state and Diff of
// them against a later state, it gives the later rows equation for
// equation, so they encode byte-identically. A delta that cannot have been
// taken against base is refused: changed equations without weights or
// with a constant term, heads out of order (base's too), a changed head
// that is also dropped, and a dropped head base does not hold.
func Patch(base Equations, d RowsDelta) (*Rows, error) {
	ch := d.Changed
	if ch.NumEqs() > 0 && !ch.weighted {
		return nil, errors.New("core: delta equations without weights")
	}
	for k := 1; k < len(d.Dropped); k++ {
		if d.Dropped[k] <= d.Dropped[k-1] {
			return nil, fmt.Errorf("core: delta drops head %d after %d", d.Dropped[k], d.Dropped[k-1])
		}
	}
	nb, nc, dropped := base.NumEqs(), ch.NumEqs(), d.Dropped
	out := newRows(max(0, nb+nc-len(dropped)), true)
	terms := base.NumTerms() + ch.NumTerms()
	out.vars, out.ws = make([]graph.NodeID, 0, terms), make([]int32, 0, terms)
	prev := int64(-1) // the last head of base read
	j := 0
	// putChanged adds the changed equations with heads below limit.
	putChanged := func(limit int64) error {
		for ; j < nc && int64(ch.nodes[j]) < limit; j++ {
			if j > 0 && ch.nodes[j] <= ch.nodes[j-1] {
				return fmt.Errorf("core: delta head %d after %d", ch.nodes[j], ch.nodes[j-1])
			}
			if ch.cons[j] != NoConst {
				return fmt.Errorf("core: delta equation of %d with a constant term", ch.nodes[j])
			}
			out.add(ch.Eq(j))
		}
		return nil
	}
	for i := 0; i < nb; i++ {
		node, cons, vars, ws := base.Eq(i)
		if int64(node) <= prev {
			return nil, fmt.Errorf("core: base head %d after %d", node, prev)
		}
		if cons != NoConst || len(ws) != len(vars) {
			return nil, fmt.Errorf("core: base equation of %d is not a weighted row", node)
		}
		prev = int64(node)
		if err := putChanged(prev); err != nil {
			return nil, err
		}
		if len(dropped) > 0 && dropped[0] < node {
			return nil, fmt.Errorf("core: delta drops head %d, which the base does not hold", dropped[0])
		}
		replaced := j < nc && ch.nodes[j] == node
		switch {
		case len(dropped) > 0 && dropped[0] == node:
			if replaced {
				return nil, fmt.Errorf("core: delta both changes and drops head %d", node)
			}
			dropped = dropped[1:]
		case !replaced:
			out.add(node, cons, vars, ws)
		}
	}
	if err := putChanged(math.MaxInt64); err != nil {
		return nil, err
	}
	if len(dropped) > 0 {
		return nil, fmt.Errorf("core: delta drops head %d, which the base does not hold", dropped[0])
	}
	return out, nil
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
// afterwards vars[i] and ws[i] hold src[i]'s terms.
func (b *cutRows) from(f *fragment.Fragment, src []int32) {
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
}

// DistQueryPart returns what f adds to its rows for qbr(s, t, l): s's own
// equation when f stores s as a node that is not an in-node (an in-node's
// is among the rows), pruned as localEvald prunes it — variables at
// distance below l, t as a constant within l — and Xv <= dist(v, t) for the
// in-nodes v whose frontier cut meets t within l, in InNodes order, when f
// stores t as a node that is not a boundary node. (Where t is a boundary
// node the rows already end at Xt, and the coordinator knows Xt = 0.) The
// target half is the search back from t (cutBFS.reaching), cut and bounded.
// Together with every fragment's rows it gives dist(s, t) whenever that is
// at most l.
//
// It returns nil when there is nothing to say.
func DistQueryPart(f *fragment.Fragment, s, t graph.NodeID, l int) *Rows {
	var rv *Rows
	if ls, ok := f.Local(s); ok && !f.IsVirtual(ls) && !f.IsInNode(ls) {
		src := cutDistPool.Get().(*cutDist)
		defer cutDistPool.Put(src)
		src.from(f, ls, t, l)
		// Emitted even when empty: it says which fragment s's closure
		// starts in.
		rv = newRows(1, true)
		rv.add(s, src.cons, src.vars, src.ws)
	}
	if lt, ok := f.Local(t); ok && !f.IsBoundary(lt) {
		bfs := cutBFSPool.Get().(*cutBFS)
		defer cutBFSPool.Put(bfs)
		for _, r := range bfs.reaching(f, lt, l, true) {
			if rv == nil {
				rv = newRows(1, true)
			}
			rv.add(f.Global(r.v), r.d, nil, nil)
		}
	}
	return rv
}

// cutDist is the frontier-cut BFS of localEvald, written once for the
// source half of DistQueryPart and for LocalEvalDist. Its scratch is reused
// across the sources of one evaluation, and across query parts through
// cutDistPool; after from, cons, vars and ws hold the source's terms until
// the next call.
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
// closes its branch; nothing at depth l or beyond is expanded.
func (b *cutDist) from(f *fragment.Fragment, v int32, t graph.NodeID, l int) {
	if n := f.NumTotal(); len(b.dist) < n {
		b.dist = make([]int32, n)
		for i := range b.dist {
			b.dist[i] = -1
		}
	}
	b.cons, b.vars, b.ws = NoConst, b.vars[:0], b.ws[:0]
	b.dist[v] = 0
	queue := append(b.queue[:0], v)
	for head := 0; head < len(queue); head++ {
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
	for _, x := range queue {
		b.dist[x] = -1
	}
	b.queue = queue
}

var cutDistPool = sync.Pool{New: func() any { return new(cutDist) }}
