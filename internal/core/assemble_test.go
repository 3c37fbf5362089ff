package core

import (
	"slices"
	"sort"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// touchedOracle is the reference the claims-based Touched sets are pinned
// against: the closure walk over a node -> (owning sites, successor nodes)
// view of the equations, built beside the system instead of read off it.
type touchedOracle struct {
	eqsOf  map[graph.NodeID][]int
	varsOf map[graph.NodeID][]graph.NodeID
}

func newTouchedOracle() *touchedOracle {
	return &touchedOracle{eqsOf: map[graph.NodeID][]int{}, varsOf: map[graph.NodeID][]graph.NodeID{}}
}

func (o *touchedOracle) add(site int, node graph.NodeID, vars ...graph.NodeID) {
	o.eqsOf[node] = append(o.eqsOf[node], site)
	o.varsOf[node] = append(o.varsOf[node], vars...)
}

func (o *touchedOracle) touched(s graph.NodeID) []int {
	sites := map[int]bool{}
	seen := map[graph.NodeID]bool{s: true}
	for stack := []graph.NodeID{s}; len(stack) > 0; {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, site := range o.eqsOf[x] {
			sites[site] = true
		}
		for _, v := range o.varsOf[x] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	out := make([]int, 0, len(sites))
	for site := range sites {
		out = append(out, site)
	}
	sort.Ints(out)
	return out
}

// boolEq is one equation of a Boolean list, Xnode = truth ∨ (∨ vars),
// as the tests compare them.
type boolEq struct {
	node  graph.NodeID
	truth bool
	vars  []graph.NodeID
}

// boolEqs lists the equations of rv read as Booleans (vars are views into
// its storage).
func boolEqs(rv *Rows) []boolEq {
	out := make([]boolEq, rv.NumEqs())
	for i := range out {
		node, cons, vars, _ := rv.Eq(i)
		out[i] = boolEq{node, cons != NoConst, vars}
	}
	return out
}

// boolRows builds an unweighted list from equations.
func boolRows(eqs ...boolEq) *Rows {
	rv := new(Rows)
	for _, eq := range eqs {
		rv.add(eq.node, truthCons(eq.truth), eq.vars, nil)
	}
	return rv
}

// TestTouchedMatchesOracle pins the Touched sets read off the deciding
// system against the map-based oracle: for reach, over a strict round
// (every site's final) and over early-terminated ones (finals fed in random
// order until Xs is proved); for dist, over the strict round — the only
// kind it has.
func TestTouchedMatchesOracle(t *testing.T) {
	rng := gen.NewRNG(2201)
	early := 0
	for trial := 0; trial < 300; trial++ {
		_, fr, s, tt := randomCase(rng, nil)
		frags := fr.Fragments()

		finals := make([]*Rows, len(frags))
		so := newTouchedOracle()
		for site, f := range frags {
			finals[site] = LocalEvalReach(f, s, tt, nil)
			for _, eq := range boolEqs(finals[site]) {
				so.add(site, eq.node, eq.vars...)
			}
		}
		strict := assembleReach(finals).Sources(s)
		if want := so.touched(s); !slices.Equal(strict, want) {
			t.Fatalf("trial %d: strict qr(%d,%d) touched %v, oracle %v", trial, s, tt, strict, want)
		}

		anytime, ao := bes.New[graph.NodeID](), newTouchedOracle()
		order := rng.Perm(len(frags))
		feed := func(site int, rv *Rows) {
			rv.AddToSystemFrom(site, anytime)
			for _, eq := range boolEqs(rv) {
				ao.add(site, eq.node, eq.vars...)
			}
		}
		for fed, site := range order {
			feed(site, finals[site])
			if got, want := anytime.Sources(s), ao.touched(s); !slices.Equal(got, want) {
				t.Fatalf("trial %d: qr(%d,%d) after %d sites touched %v, oracle %v", trial, s, tt, fed+1, got, want)
			}
			if anytime.Decide(s) {
				// A round decided here reports a subset of the strict set.
				for _, site := range anytime.Sources(s) {
					if !slices.Contains(strict, site) {
						t.Fatalf("trial %d: early touched %v not within strict %v", trial, anytime.Sources(s), strict)
					}
				}
				if fed+1 < len(frags) {
					early++
				}
				break
			}
		}

		l := 1 + rng.Intn(8)
		do := newTouchedOracle()
		dparts := make([]*Rows, len(frags))
		for site, f := range frags {
			dparts[site] = LocalEvalDist(f, s, tt, l)
			for i := 0; i < dparts[site].NumEqs(); i++ {
				node, _, vars, _ := dparts[site].Eq(i)
				do.add(site, node, vars...)
			}
		}
		if _, got := AssembleDist(dparts, s); !slices.Equal(got, do.touched(s)) {
			t.Fatalf("trial %d: qbr(%d,%d,%d) touched %v, oracle %v", trial, s, tt, l, got, do.touched(s))
		}
	}
	if early == 0 {
		t.Fatal("no early-terminated round in the corpus")
	}
}

// TestTouchedSound is the property cache invalidation rests on, for all
// three classes: after any sequence of edge updates none of whose dirty
// sets meets a query's Touched set, the centralized answer is what it was.
// An update that does meet it may change the answer (and the corpus must
// contain some that do, or the test proves nothing).
func TestTouchedSound(t *testing.T) {
	rng := gen.NewRNG(2202)
	type verdict struct {
		ans  bool
		dist int
	}
	var flipped [3]int
	for trial := 0; trial < 400; trial++ {
		g, fr, s, tt := randomCase(rng, testLabels)
		if s == tt {
			continue // answered without evaluation: no Touched set, nothing cached against one
		}
		n := g.NumNodes()
		l := 1 + rng.Intn(8)
		a := automaton.FromRegex(randomRegex(rng, 3))
		central := func() [3]verdict {
			d := g.Dist(s, tt)
			within := d >= 0 && d <= l
			if !within {
				d = -1
			}
			return [3]verdict{{ans: g.Reachable(s, tt)}, {within, d}, {ans: automaton.Eval(g, s, tt, a)}}
		}
		frags := fr.Fragments()
		rp := make([]*Rows, len(frags))
		dp := make([]*Rows, len(frags))
		qp := make([]*Rows, len(frags))
		for i, f := range frags {
			rp[i], dp[i], qp[i] = LocalEvalReach(f, s, tt, nil), LocalEvalDist(f, s, tt, l), LocalEvalRPQ(f, s, tt, a)
		}
		var touched [3][]int
		touched[0] = assembleReach(rp).Sources(s)
		_, touched[1] = AssembleDist(dp, s)
		_, touched[2] = WalkRPQ(qp, s, a.NumStates(), fr.Owner)
		before := central()

		evicted := [3]bool{}
		for step := 0; step < 4; step++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			var dirty []int
			var err error
			if rng.Intn(3) == 0 {
				dirty, _, err = fr.DeleteEdge(u, v)
			} else {
				dirty, _, err = fr.InsertEdge(u, v)
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			after := central()
			for c := range touched {
				if !evicted[c] && slices.ContainsFunc(dirty, func(f int) bool { return slices.Contains(touched[c], f) }) {
					evicted[c] = true
					if after[c] != before[c] {
						flipped[c]++
					}
				}
				if !evicted[c] && after[c] != before[c] {
					t.Fatalf("trial %d step %d: class %d (%d->%d, l=%d) went %+v -> %+v after an update dirtying %v, outside touched %v",
						trial, step, c, s, tt, l, before[c], after[c], dirty, touched[c])
				}
			}
		}
	}
	for c, k := range flipped {
		if k == 0 {
			t.Errorf("class %d: no update meeting a touched set ever changed an answer", c)
		}
	}
}

// reportTally sums the deterministic fields of a run of Reports.
type reportTally struct {
	Visits, Bytes, BytesCoord, Messages int64
	Rounds                              int
	NetTime                             time.Duration
}

func (a *reportTally) add(r cluster.Report) {
	a.Visits += r.TotalVisits
	a.Bytes += r.Bytes
	a.BytesCoord += r.BytesCoord
	a.Messages += r.Messages
	a.Rounds += r.Rounds
	a.NetTime += r.NetTime
}

// TestDriverReportsUnchanged pins the simulated accounting of every
// algorithm that runs through threePhase to the values the five
// hand-written skeletons produced on the same seeds (recorded at the commit
// before the driver replaced them).
func TestDriverReportsUnchanged(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 300, Edges: 600, Labels: testLabels, Seed: 22})
	fr, err := fragment.Random(g, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(4, cluster.NetModel{Latency: time.Millisecond, BytesPerSecond: 1e6})
	rng := gen.NewRNG(22)
	var qs [][2]graph.NodeID
	for i := 0; i < 40; i++ {
		// Few targets: the draw the tallies below were recorded on.
		qs = append(qs, [2]graph.NodeID{graph.NodeID(rng.Intn(300)), graph.NodeID(rng.Intn(3))})
	}
	var reach, dist, rpq reportTally
	for _, q := range qs {
		reach.add(DisReach(cl, fr, q[0], q[1], nil).Report)
		dist.add(DisDist(cl, fr, q[0], q[1], 6).Report)
		rpq.add(DisRPQ(cl, fr, q[0], q[1], automaton.FromRegex(randomRegex(rng, 3))).Report)
	}
	for _, c := range []struct {
		name      string
		got, want reportTally
	}{
		{"DisReach", reach, reportTally{160, 131807, 129887, 320, 0, 114925 * time.Microsecond}},
		{"DisDist", dist, reportTally{160, 211300, 209380, 320, 0, 136260 * time.Microsecond}},
		// qrr's bytes left the recorded 93883 / 82103 / 104985996ns when
		// in-nodes without an entry stopped costing their 4-byte header.
		{"DisRPQ", rpq, reportTally{160, 64119, 52339, 320, 0, 97317994 * time.Nanosecond}},
	} {
		if c.got != c.want {
			t.Errorf("%s: report tally %+v, recorded %+v", c.name, c.got, c.want)
		}
	}
}

// TestSourceEqMatchesLocalEval: the source equation SourceOnlyReach computes
// alone is the one a full local evaluation appends for the same source, for every
// kind of source — sharing a local SCC with an in-node (alias), stored here
// only as a virtual node or already an in-node (no equation of its own),
// and plain (the frontier-cut BFS both now share).
func TestSourceEqMatchesLocalEval(t *testing.T) {
	// Fragment 0 holds a(0) <-> c(1), p(2) -> x(3) -> t0(4); fragment 1
	// holds w(5) -> z(6). Cross edges w->a (a is an in-node), c->w, x->w.
	b := graph.NewBuilder(7)
	b.AddNodes(7, "")
	for _, e := range [][2]graph.NodeID{{5, 0}, {0, 1}, {1, 0}, {1, 5}, {2, 3}, {3, 5}, {3, 4}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	fr, err := fragment.Build(b.MustBuild(), []int{0, 0, 0, 0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := fr.Fragments()[0]
	// fromLocalEval extracts s's own equation from a full evaluation: the
	// one appended beyond the source-independent in-node equations.
	fromLocalEval := func(s, tt graph.NodeID) (boolEq, bool) {
		with, base := boolEqs(LocalEvalReach(f, s, tt, nil)), boolEqs(LocalEvalReach(f, graph.None, tt, nil))
		if len(with) == len(base) {
			return boolEq{}, false
		}
		return with[len(with)-1], true
	}
	for _, c := range []struct {
		name  string
		s, tt graph.NodeID
		want  *boolEq // nil: no equation of its own
	}{
		{"in-SCC source aliases the in-node", 1, 6, &boolEq{node: 1, vars: []graph.NodeID{0}}},
		{"virtual-only source", 5, 6, nil},
		{"in-node source", 0, 6, nil},
		{"plain source, remote target", 2, 6, &boolEq{node: 2, vars: []graph.NodeID{5}}},
		{"plain source, local target", 2, 4, &boolEq{node: 2, truth: true, vars: []graph.NodeID{5}}},
	} {
		var got boolEq
		own := SourceOnlyReach(f, c.s, c.tt, nil)
		ok := own != nil
		if ok {
			got = boolEqs(own)[0]
		}
		full, fullOK := fromLocalEval(c.s, c.tt)
		if ok != fullOK || ok != (c.want != nil) {
			t.Errorf("%s: SourceOnlyReach owns an equation: %v, LocalEvalReach: %v, want %v", c.name, ok, fullOK, c.want != nil)
			continue
		}
		same := func(x, y boolEq) bool {
			return x.node == y.node && x.truth == y.truth && slices.Equal(x.vars, y.vars)
		}
		if ok && (!same(got, full) || !same(got, *c.want)) {
			t.Errorf("%s: SourceOnlyReach %+v, LocalEvalReach %+v, want %+v", c.name, got, full, *c.want)
		}
	}
	// The one place the two differ, by design: a source sharing a local SCC
	// with the target, itself an in-node. SourceOnlyReach aliases Xs = Xt (true by
	// t's own equation); localEval never aliases to t and searches instead.
	// Both decide the same.
	alias := boolEqs(SourceOnlyReach(f, 1, 0, nil))[0]
	searched, _ := fromLocalEval(1, 0)
	if len(alias.vars) != 1 || alias.vars[0] != 0 || !searched.truth {
		t.Fatalf("source in the target's SCC: SourceOnlyReach %+v, LocalEvalReach %+v", alias, searched)
	}
	base := LocalEvalReach(f, graph.None, 0, nil)
	for _, eq := range []boolEq{alias, searched} {
		if !SolveReach([]*Rows{base, boolRows(eq)}, 1) {
			t.Errorf("qr(1,0) false with source equation %+v", eq)
		}
	}
}

// rowsAndQueryPart decides qr(s, t) the way the wire coordinator does once
// it holds every fragment's rows: the rows, plus each fragment's query part.
func rowsAndQueryPart(rows []*Rows, frags []*fragment.Fragment, s, t graph.NodeID, opt *Options) bool {
	sys := bes.New[graph.NodeID]()
	for site, f := range frags {
		rows[site].AddToSystemFrom(site, sys)
		SourceOnlyReach(f, s, t, opt).AddToSystemFrom(site, sys)
		TargetOnlyReach(f, t, opt).AddToSystemFrom(site, sys)
	}
	return sys.Decide(s)
}

// rowsAndDistPart solves qbr(s, t, l) as min-plus equations over the same
// rows plus each fragment's DistQueryPart and Xt = 0, as the wire
// coordinator's search does: the distance when it is at most l, else -1.
func rowsAndDistPart(rows []*Rows, frags []*fragment.Fragment, s, t graph.NodeID, l int) int {
	sys := bes.NewWeighted[graph.NodeID]()
	sys.AddConst(t, 0)
	for site, f := range frags {
		for _, rv := range []*Rows{rows[site], DistQueryPart(f, s, t, l, nil)} {
			for i := 0; i < rv.NumEqs(); i++ {
				node, cons, vars, ws := rv.Eq(i)
				if node == t {
					continue // Xt = 0 whatever a row says
				}
				if cons != NoConst {
					sys.AddConst(node, int64(cons))
				}
				for j, v := range vars {
					sys.AddTerm(node, v, int64(ws[j]))
				}
			}
		}
	}
	if d, _ := sys.Solve(s); d <= int64(l) {
		return int(d)
	}
	return -1
}

// TestLocalRowsMatchCutDist: the 64-wide BFS behind LocalRows gives every
// in-node the terms the one-source cut BFS gives it, on fragments with
// more in-nodes than one batch holds.
func TestLocalRowsMatchCutDist(t *testing.T) {
	type term struct {
		b graph.NodeID
		d int32
	}
	batches := 0
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.PowerLaw(gen.Config{Nodes: 400, Edges: 1600, Seed: seed})
		fr, err := fragment.Random(g, 2+int(seed%3), seed)
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range fr.Fragments() {
			if len(f.InNodes()) > 64 {
				batches++
			}
			rv := LocalRows(f, nil)
			if rv.NumEqs() != len(f.InNodes()) {
				t.Fatalf("seed %d fragment %d: %d rows for %d in-nodes", seed, fi, rv.NumEqs(), len(f.InNodes()))
			}
			var bfs cutDist
			for i := 0; i < rv.NumEqs(); i++ {
				node, cons, vars, ws := rv.Eq(i)
				v, _ := f.Local(node)
				bfs.from(f, v, graph.None, unbounded, nil)
				got, want := make([]term, len(vars)), make([]term, len(bfs.vars))
				for j := range vars {
					got[j] = term{vars[j], ws[j]}
				}
				for j := range bfs.vars {
					want[j] = term{bfs.vars[j], bfs.ws[j]}
				}
				cmp := func(a, b term) int { return int(a.b) - int(b.b) }
				slices.SortFunc(got, cmp)
				slices.SortFunc(want, cmp)
				if cons != NoConst || !slices.Equal(got, want) {
					t.Fatalf("seed %d fragment %d, X%d: rows give %d %v, the cut BFS %v", seed, fi, node, cons, got, want)
				}
			}
		}
	}
	if batches == 0 {
		t.Fatal("no fragment had more than 64 in-nodes")
	}
}

// TestRowsPlusQueryPartMatchesLocalEval: a fragment's weighted in-node rows
// (LocalRows) plus the query part (SourceOnlyReach, TargetOnlyReach)
// decide what the full local evaluation decides — on a hand-built
// fragmentation covering every kind of source and target, and on random
// ones over all pairs, indexed and direct — and when a compaction between
// the rows and the query part changes which in-node represents an SCC.
// The same rows plus DistQueryPart give every distance within its bound.
func TestRowsPlusQueryPartMatchesLocalEval(t *testing.T) {
	// TestSourceEqMatchesLocalEval's graph: fragment 0 holds a(0) <-> c(1),
	// p(2) -> x(3) -> t0(4); fragment 1 holds w(5) -> z(6); cross edges
	// w->a, c->w, x->w. a is an in-node whose SCC holds c.
	b := graph.NewBuilder(7)
	b.AddNodes(7, "")
	for _, e := range [][2]graph.NodeID{{5, 0}, {0, 1}, {1, 0}, {1, 5}, {2, 3}, {3, 5}, {3, 4}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, []int{0, 0, 0, 0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	frags := fr.Fragments()
	rows := make([]*Rows, len(frags))
	for i, f := range frags {
		rows[i] = LocalRows(f, nil)
	}
	for _, c := range []struct {
		name string
		s, t graph.NodeID
	}{
		{"in-SCC source, remote plain target", 1, 6},
		{"virtual-only source at fragment 0", 5, 6},
		{"in-node source, local plain target", 0, 1},
		{"plain source, local plain target", 2, 4},
		{"plain source, target an in-node", 2, 0},
		{"plain source, target aliased inside an in-node SCC", 2, 1},
		{"target virtual at the source's fragment", 2, 5},
		{"source in the target's SCC", 1, 0},
		{"unreachable", 4, 2},
	} {
		full := make([]*Rows, len(frags))
		for i, f := range frags {
			full[i] = LocalEvalReach(f, c.s, c.t, nil)
		}
		want := g.Reachable(c.s, c.t)
		if got := SolveReach(full, c.s); got != want {
			t.Fatalf("%s: LocalEvalReach decides qr(%d,%d) = %v, want %v", c.name, c.s, c.t, got, want)
		}
		if got := rowsAndQueryPart(rows, frags, c.s, c.t, nil); got != want {
			t.Errorf("%s: rows + query part decide qr(%d,%d) = %v, want %v", c.name, c.s, c.t, got, want)
		}
		for l := 1; l <= 4; l++ {
			want := g.Dist(c.s, c.t)
			if want > l {
				want = -1
			}
			if got := rowsAndDistPart(rows, frags, c.s, c.t, l); got != want {
				t.Errorf("%s: rows + distance part give dist(%d,%d) within %d = %d, want %d", c.name, c.s, c.t, l, got, want)
			}
		}
	}

	// Fragment 0 holds junk(0), a(1) <-> b(3), b -> t(2); fragment 1 holds
	// p(4) -> a and q(5) -> b. Deleting junk swaps b into slot 0, ahead of
	// a: the rows alias Xa = Xb. The compaction restores ID order, so an
	// evaluation after it would alias Xb = Xa — the query part must not
	// depend on which.
	b = graph.NewBuilder(6)
	b.AddNodes(6, "")
	for _, e := range [][2]graph.NodeID{{1, 3}, {3, 1}, {3, 2}, {4, 1}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	if fr, err = fragment.Build(b.MustBuild(), []int{0, 0, 0, 0, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.DeleteNode(0); err != nil {
		t.Fatal(err)
	}
	frags = fr.Fragments()
	for i, f := range frags {
		rows[i] = LocalRows(f, nil)
	}
	fr.Compact()
	for _, s := range []graph.NodeID{4, 5} {
		if !rowsAndQueryPart(rows, frags, s, 2, nil) {
			t.Errorf("rows from before a compaction + query part after it: qr(%d,2) = false, want true", s)
		}
	}

	rng := gen.NewRNG(2301)
	for trial := 0; trial < 120; trial++ {
		g, fr, _, _ := randomCase(rng, nil)
		n := g.NumNodes()
		opt := &Options{NoFragmentIndex: trial%2 == 0}
		if !opt.NoFragmentIndex {
			fr.EnableReachIndex(1 << 20)
			fr.WaitReachIndexes()
		}
		frags := fr.Fragments()
		rows := make([]*Rows, len(frags))
		for i, f := range frags {
			rows[i] = LocalRows(f, opt)
		}
		for s := graph.NodeID(0); int(s) < n; s++ {
			for tt := graph.NodeID(0); int(tt) < n; tt++ {
				if s == tt {
					continue
				}
				if got, want := rowsAndQueryPart(rows, frags, s, tt, opt), g.Reachable(s, tt); got != want {
					t.Fatalf("trial %d: rows + query part decide qr(%d,%d) = %v, BFS %v on %v, %v", trial, s, tt, got, want, g, fr)
				}
				l := 1 + int(s+tt)%8
				want := g.Dist(s, tt)
				if want > l {
					want = -1
				}
				if got := rowsAndDistPart(rows, frags, s, tt, l); got != want {
					t.Fatalf("trial %d: rows + distance part give dist(%d,%d) within %d = %d, BFS %d on %v, %v", trial, s, tt, l, got, want, g, fr)
				}
			}
		}
	}
}
