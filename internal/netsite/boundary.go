package netsite

import (
	"fmt"
	"math"
	"slices"

	"distreach/internal/core"
	"distreach/internal/graph"
)

// The coordinator's side of the boundary cache. The rows are weighted:
// row Xv <= Xb + d says in-node v reaches boundary node b in d steps inside
// its fragment without passing another boundary node. Read as Booleans they
// answer reach queries, read as min-plus equations distance queries.
//
// A reach query qr(s, t) is Xs in the least solution of every site's rows
// plus the query parts the sites send with it (s's equation, Xv = true for
// the in-nodes that reach t): Xs holds iff a walk from s along the
// equations' disjuncts meets an equation with a true disjunct. A distance
// query qbr(s, t, l) is the least weight of such a walk to t itself (Xt =
// 0) or to a constant term of its query part (Xv <= dist(v, t)), when that
// is at most l. The rows are a pure function of the k tags the coordinator
// holds, so it lays them out once per tag vector — a boundary: a dense
// numbering of every node the rows mention and the rows as one CSR over it,
// each row tagged with its site — and each query walks that from s,
// carrying its few query equations on the side. Per query the coordinator
// then pays one walk over the nodes s reaches, not |Vf|² rows re-added to a
// fresh equation system. Once published, the boundary is also the
// coordinator's only copy of the rows: the cache entries it lays out point
// at it (siteRows.in), and the next build reads them back.
//
// The reach walk only follows the rows of sites that have replied, so early
// decision keeps its meaning: a reply opens one more site's rows, the walk
// resumes from the nodes it has already seen, and the answer is true the
// moment the walk meets a true equation — a chain of sound implications at
// the round's (epoch, LSN) that no silent site can retract. A distance
// needs every reply (any silent site may hold a shorter path), so the
// distance search runs once, when the round is in. Touched is read off the
// completed walk or search: the sites owning an equation of a visited node,
// which is the set bes.System.Sources reports for the same equations.

// boundary is one tag vector's rows in walkable form. A node's number is
// its index in ids. Immutable once built.
type boundary struct {
	tags  []rowsTag      // per site: the tag of the rows laid out (zero: none)
	ids   []graph.NodeID // sorted: every node the rows mention
	nodes []boundaryNode // per number, plus a sentinel
	adj   []int32
	ws    []int32 // per adj entry: its weight
	// shared holds, for a node with equations from several sites, every
	// site's. A node is an in-node of one fragment only, so that takes rows
	// of different fragmentations: a round straddling a rebalance, before
	// its stale copies are replaced. Handled, not fast.
	shared map[int32][]siteEq
}

// boundaryNode is one node's row: Xnode <= min over adj[start:next node's
// start] of Xadj + ws, contributed by site — or, with site noOwner, no row
// (the node is only mentioned), with site sharedOwners, several (shared).
// Rows carry no constant term (the coordinator refuses rows with one).
type boundaryNode struct {
	start int32
	site  int16
}

const (
	noOwner      = -1
	sharedOwners = -2
)

// siteEq is one equation over a boundary's numbering, Xnode <= min(cons,
// min over vars of Xvar + ws) — for a reach query, Xnode = (cons present) ∨
// (∨ vars) — and the site that sent it. cons is core.NoConst when there is
// no constant term; ws is nil for a reach query's equations.
type siteEq struct {
	site int
	cons int32
	vars []int32
	ws   []int32
}

// buildBoundary lays out the rows of one tag vector (rows[i] nil: site i
// contributed none).
func buildBoundary(rows []*siteRows) *boundary {
	b := &boundary{tags: make([]rowsTag, len(rows))}
	// Site i's rows: decoded off the wire or patched (*core.Rows), or read
	// back from the boundary that laid them out (laidOut).
	srcs := make([]core.Equations, len(rows))
	number := make(map[graph.NodeID]int32)
	for i, r := range rows {
		if r == nil {
			continue
		}
		b.tags[i] = r.tag
		srcs[i] = r.source(i)
		for e := 0; e < srcs[i].NumEqs(); e++ {
			node, _, vs, _ := srcs[i].Eq(e)
			number[node] = 0
			for _, v := range vs {
				number[v] = 0
			}
		}
	}
	b.ids = make([]graph.NodeID, 0, len(number))
	for v := range number {
		b.ids = append(b.ids, v)
	}
	slices.Sort(b.ids)
	for x, v := range b.ids {
		number[v] = int32(x)
	}
	// Translate every equation once, into eqs[i]: site i's equations over
	// the numbering. Note who owns each node's equation.
	n := len(b.ids)
	b.nodes = make([]boundaryNode, n+1)
	for x := range b.nodes {
		b.nodes[x].site = noOwner
	}
	eqs := make([][]nodeEq, len(rows))
	for i, src := range srcs {
		if src == nil {
			continue
		}
		eqs[i] = make([]nodeEq, src.NumEqs())
		for e := range eqs[i] {
			node, _, vs, ws := src.Eq(e)
			eq := nodeEq{x: number[node], siteEq: siteEq{site: i, cons: core.NoConst, vars: make([]int32, len(vs)), ws: ws}}
			for j, v := range vs {
				eq.vars[j] = number[v]
			}
			eqs[i][e] = eq
			switch nd := &b.nodes[eq.x]; nd.site {
			case noOwner:
				nd.site = int16(i)
			case int16(i), sharedOwners:
			default:
				nd.site = sharedOwners
			}
		}
	}
	// Count each node's disjuncts and set shared nodes' equations aside,
	// then lay the rest out.
	for _, es := range eqs {
		for _, eq := range es {
			if nd := &b.nodes[eq.x]; nd.site == sharedOwners {
				if b.shared == nil {
					b.shared = make(map[int32][]siteEq)
				}
				b.shared[eq.x] = append(b.shared[eq.x], eq.siteEq)
			} else {
				b.nodes[eq.x+1].start += int32(len(eq.vars))
			}
		}
	}
	for x := 0; x < n; x++ {
		b.nodes[x+1].start += b.nodes[x].start
	}
	b.adj = make([]int32, b.nodes[n].start)
	b.ws = make([]int32, b.nodes[n].start)
	next := make([]int32, n) // per node: where its next disjunct goes
	for x := range next {
		next[x] = b.nodes[x].start
	}
	for _, es := range eqs {
		for _, eq := range es {
			if b.nodes[eq.x].site != sharedOwners {
				copy(b.ws[next[eq.x]:], eq.ws)
				next[eq.x] += int32(copy(b.adj[next[eq.x]:], eq.vars))
			}
		}
	}
	return b
}

// nodeEq is one site's equation for node number x, during a build.
type nodeEq struct {
	x int32
	siteEq
}

// number reports node v's number, if the rows mention it.
func (b *boundary) number(v graph.NodeID) (int32, bool) {
	x, ok := slices.BinarySearch(b.ids, v)
	return int32(x), ok
}

// laidOut is one site's rows read back from a boundary without shared
// nodes, where every equation of the site is one node's.
type laidOut struct {
	b     *boundary
	eqs   []int32 // the numbers of the site's nodes
	terms int
	vars  []graph.NodeID
}

func (b *boundary) rowsOf(site int) *laidOut {
	l := &laidOut{b: b}
	for x, nd := range b.nodes[:len(b.ids)] {
		if int(nd.site) == site {
			l.eqs = append(l.eqs, int32(x))
			l.terms += int(b.nodes[x+1].start - nd.start)
		}
	}
	return l
}

func (l *laidOut) NumEqs() int   { return len(l.eqs) }
func (l *laidOut) NumTerms() int { return l.terms }

func (l *laidOut) Eq(i int) (graph.NodeID, int32, []graph.NodeID, []int32) {
	x := l.eqs[i]
	lo, hi := l.b.nodes[x].start, l.b.nodes[x+1].start
	l.vars = l.vars[:0]
	for _, w := range l.b.adj[lo:hi] {
		l.vars = append(l.vars, l.b.ids[w])
	}
	return l.b.ids[x], core.NoConst, l.vars, l.b.ws[lo:hi]
}

// owner names the one site whose row heads node v: v is an in-node of that
// site's fragment. It is -1 when no row, or more than one, heads v.
func (b *boundary) owner(v graph.NodeID) int {
	if x, ok := b.number(v); ok && b.nodes[x].site >= 0 {
		return int(b.nodes[x].site)
	}
	return -1
}

// holds reports whether the boundary lays out exactly the given rows.
func (b *boundary) holds(rows []*siteRows) bool {
	for i, r := range rows {
		var tag rowsTag
		if r != nil {
			tag = r.tag
		}
		if tag != b.tags[i] {
			return false
		}
	}
	return true
}

// queryNodes numbers the nodes of query equations over a boundary's
// numbering: a node the rows never mention (the source, typically) gets an
// index from n up.
type queryNodes struct {
	bnd   *boundary
	extra map[graph.NodeID]int32
}

// idOf numbers a node of a query equation.
func (q *queryNodes) idOf(v graph.NodeID) int32 {
	if x, ok := q.bnd.number(v); ok {
		return x
	}
	x, ok := q.extra[v]
	if !ok {
		if q.extra == nil {
			q.extra = make(map[graph.NodeID]int32)
		}
		x = int32(len(q.bnd.ids) + len(q.extra))
		q.extra[v] = x
	}
	return x
}

// eq translates site's equation for node; ws is kept, not copied.
func (q *queryNodes) eq(site int, node graph.NodeID, cons int32, vars []graph.NodeID, ws []int32) (int32, siteEq) {
	eq := siteEq{site: site, cons: cons, vars: make([]int32, len(vars)), ws: ws}
	for i, v := range vars {
		eq.vars[i] = q.idOf(v)
	}
	return q.idOf(node), eq
}

// targetEqs is the query equations of one target's reach queries in a
// round, as the replied sites sent them.
type targetEqs struct {
	queryNodes
	eqs    map[int32][]siteEq
	probes []*probe // the target's queries
}

// add records site's equation for node and hands it to the target's
// probes: one that has already expanded the node takes it in at once, the
// others when their walk gets there.
func (te *targetEqs) add(site int, node graph.NodeID, cons int32, vars []graph.NodeID) {
	x, eq := te.eq(site, node, cons, vars, nil)
	te.eqs[x] = append(te.eqs[x], eq)
	for _, p := range te.probes {
		m := p.at(x)
		*m |= markQuery
		if *m&markDone != 0 {
			p.apply(eq)
		}
	}
}

// probe is one reach query's resumable walk from s over the boundary: the
// rows of the sites opened so far and its target's query equations.
type probe struct {
	bnd     *boundary
	te      *targetEqs
	mark    []uint8 // per node: markSeen | markDone | markQuery
	order   []int32 // the nodes seen, in visit order
	head    int     // order[:head] is expanded through every open site
	answer  bool    // the walk met a true equation
	open    []bool  // per site: the walk follows its rows
	touched []bool  // per site: it owns an equation of a seen node
}

// Probe node marks: seen by the walk; expanded; has query equations.
const (
	markSeen uint8 = 1 << iota
	markDone
	markQuery
)

// newProbe starts a walk at s.
func newProbe(te *targetEqs, s graph.NodeID, sites int) *probe {
	p := &probe{bnd: te.bnd, te: te, mark: make([]uint8, len(te.bnd.ids)), open: make([]bool, sites), touched: make([]bool, sites)}
	te.probes = append(te.probes, p)
	p.visit(te.idOf(s))
	return p
}

// at returns node x's mark, growing the marks over query-only nodes.
func (p *probe) at(x int32) *uint8 {
	for int(x) >= len(p.mark) {
		p.mark = append(p.mark, 0)
	}
	return &p.mark[x]
}

func (p *probe) visit(x int32) {
	if m := p.at(x); *m&markSeen == 0 {
		*m |= markSeen
		p.order = append(p.order, x)
	}
}

// apply takes in one equation, sent by an open site, of an expanded node.
func (p *probe) apply(eq siteEq) {
	p.touched[eq.site] = true
	p.answer = p.answer || eq.cons != core.NoConst
	for _, w := range eq.vars {
		p.visit(w)
	}
}

// follow expands node x through its equations from the open sites (only
// ≥ 0: from that open site alone).
func (p *probe) follow(x int32, only int) {
	nodes := p.bnd.nodes
	if int(x) >= len(nodes)-1 {
		return // a node only query equations mention
	}
	nd := &nodes[x]
	switch site := int(nd.site); {
	case site == noOwner:
	case site == sharedOwners:
		for _, eq := range p.bnd.shared[x] {
			if p.open[eq.site] && (only < 0 || eq.site == only) {
				p.apply(eq)
			}
		}
	case p.open[site] && (only < 0 || site == only):
		p.touched[site] = true
		for _, w := range p.bnd.adj[nd.start:nodes[x+1].start] {
			p.visit(w)
		}
	}
}

// openSites adds the rows of newly replied sites to the walk — the nodes
// already expanded are expanded through them too — and walks on through
// every open site until nothing new is seen.
func (p *probe) openSites(added []int) {
	for _, i := range added {
		p.open[i] = true
		for _, x := range p.order[:p.head] {
			p.follow(x, i)
		}
	}
	for p.head < len(p.order) {
		x := p.order[p.head]
		p.head++
		p.mark[x] |= markDone
		p.follow(x, -1)
		if p.mark[x]&markQuery != 0 {
			for _, eq := range p.te.eqs[x] {
				p.apply(eq)
			}
		}
	}
}

// sites lists, sorted, the sites the walk touched.
func (p *probe) sites() []int { return siteList(p.touched) }

// siteList lists, sorted, the sites whose flag is set.
func siteList(touched []bool) []int {
	out := make([]int, 0, len(touched))
	for i, ok := range touched {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// distance answers qbr(s, t, l) over the rows of the open sites and the
// query parts they sent (parts[i]: site i's, nil: none): the least weight
// of a chain of equations from s to Xt = 0 or to a constant term, with the
// sorted sites owning an equation of a node the search walked. The
// distance is exact when it is at most l, and core.Inf otherwise. A query
// part without weights fails the search: reading its terms as weight 0
// could report a distance shorter than the graph has.
//
// It is Dijkstra's search over the terms lighter than l (the ones
// LocalEvalDist keeps: no path of length at most l continues past a
// heavier one). Nodes at distance l or more no longer bear on the answer:
// they skip the queue and are walked afterwards, in any order, so that
// Touched covers every node AssembleDist's closure over the same query's
// full partials covers. The queue is a binary heap rather than a bucket per
// distance, so no weight a site sends can size it.
func (b *boundary) distance(s, t graph.NodeID, l int, open []bool, parts []*core.Rows) (int64, []int, error) {
	q := queryNodes{bnd: b}
	qeqs := make(map[int32][]siteEq)
	for site, part := range parts {
		if part != nil && !part.Weighted() {
			return 0, nil, fmt.Errorf("site %d sent a distance query part without weights", site)
		}
		for e := 0; e < part.NumEqs(); e++ {
			node, cons, vars, ws := part.Eq(e)
			x, eq := q.eq(site, node, cons, vars, ws)
			qeqs[x] = append(qeqs[x], eq)
		}
	}
	src, tx := q.idOf(s), q.idOf(t)
	lim := int32(min(l, math.MaxInt32)) // no path of 2^31 nodes: exact below it
	dist := make([]int32, len(b.ids)+len(q.extra))
	for x := range dist {
		dist[x] = -1
	}
	var queue distQueue
	var beyond []int32 // the nodes found at distance lim or more
	best := core.Inf
	touched := make([]bool, len(open))
	var d int32
	relax := func(y, w int32) {
		switch {
		case y == tx:
			if d < lim {
				best = min(best, int64(d)+int64(w))
			}
		case w >= lim:
		case int64(d)+int64(w) >= int64(lim):
			if dist[y] < 0 {
				dist[y] = lim
				beyond = append(beyond, y)
			}
		case dist[y] < 0 || d+w < dist[y]:
			dist[y] = d + w
			queue.push(d+w, y)
		}
	}
	apply := func(eq siteEq) {
		touched[eq.site] = true
		if eq.cons != core.NoConst && d < lim {
			best = min(best, int64(d)+int64(eq.cons))
		}
		for k, y := range eq.vars {
			relax(y, eq.ws[k])
		}
	}
	expand := func(x int32) {
		if int(x) < len(b.ids) {
			switch nd := b.nodes[x]; nd.site {
			case noOwner:
			case sharedOwners:
				for _, eq := range b.shared[x] {
					if open[eq.site] {
						apply(eq)
					}
				}
			default:
				if open[nd.site] {
					touched[nd.site] = true
					for k := nd.start; k < b.nodes[x+1].start; k++ {
						relax(b.adj[k], b.ws[k])
					}
				}
			}
		}
		for _, eq := range qeqs[x] {
			apply(eq)
		}
	}
	dist[src] = 0
	for queue.push(0, src); len(queue) > 0; {
		var x int32
		if d, x = queue.pop(); dist[x] == d { // else superseded by a shorter offer
			expand(x)
		}
	}
	d = lim
	for i := 0; i < len(beyond); i++ {
		if x := beyond[i]; dist[x] == lim { // else found shorter later
			expand(x)
		}
	}
	if best > int64(l) {
		best = core.Inf
	}
	return best, siteList(touched), nil
}

// distQueue is a binary min-heap of (distance, node) pairs, each packed
// into one word with the distance on top.
type distQueue []uint64

func (h *distQueue) push(d, x int32) {
	q := append(*h, uint64(d)<<32|uint64(uint32(x)))
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *distQueue) pop() (d, x int32) {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return int32(top >> 32), int32(uint32(top))
}
