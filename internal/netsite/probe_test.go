package netsite

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
)

// probeState is one deployment state as a coordinator sees it: per site,
// the rows it stands on and the query parts of one batch.
type probeState struct {
	g     *graph.Graph
	state uint64 // tells the stale copies of one state from another's
	wire  []BatchQuery
	rows  []*siteRows
	parts [][]*core.Rows
}

// probeRound runs one round of the coordinator's solver over st: the sites
// in order reply (the rest stay silent), each with a rows-free body when
// hit[site] says the coordinator holds its rows — as earlier rounds left
// them, decoded or laid out in the boundary they published — and with its
// rows otherwise. The coordinator then holds a stale copy from another
// instance: the next site's rows, so that until the reply replaces it two
// sites have equations for the same nodes.
func probeRound(t *testing.T, co *Coordinator, st *probeState, order []int, hit []bool, early bool) []BatchAnswer {
	t.Helper()
	for i, r := range st.rows {
		if hit[i] {
			if cur := co.rows[i].Load(); cur == nil || cur.tag != r.tag {
				co.rows[i].Store(r)
			}
		} else {
			stale := rowsTag{r.tag.instance ^ 1, st.state<<32 | r.tag.gen}
			co.rows[i].Store(&siteRows{tag: stale, rv: st.rows[(i+1)%len(st.rows)].rv})
		}
	}
	sol := newBatchSolver(co, st.wire, early)
	sol.reset()
	for i := range co.rows {
		sol.held[i] = co.rows[i].Load()
	}
	for _, site := range order {
		var rows *siteRows
		if !hit[site] {
			rows = st.rows[site]
		}
		if _, err := feedBody(sol, site, replyBody(t, st.parts[site], rows)); err != nil {
			t.Fatal(err)
		}
	}
	widx := make([]int, len(st.wire))
	for j := range widx {
		widx[j] = j
	}
	answers := make([]BatchAnswer, len(st.wire))
	if err := sol.finish(widx, answers); err != nil {
		t.Fatal(err)
	}
	return answers
}

// TestProbeMatchesEquationSystem is the reference check of the
// coordinator's reach and distance solvers: 50 random graphs under random,
// contiguous, edgecut, v%k and BFS-grown assignments, each at three states
// — as built, after edge updates, and after a compaction, which keeps every
// generation, so the coordinator joins rows from before it with query parts
// from after. For every (s, t) and every subset of replied sites, in a
// random reply order, with each site's rows held or shipped and early
// decision on or off:
//
//   - every reach probe's answer and Touched equal those of a bes.System
//     fed exactly the replied sites' rows and query parts (Decide and
//     Sources);
//   - every qbr(s, t, l), l in 0..9, has the Dist core.AssembleDist gives
//     on the replied sites' full LocalEvalDist partials, and a Touched that
//     contains the sites AssembleDist reports.
//
// With every site replied the answers are centralized reachability and
// distance.
func TestProbeMatchesEquationSystem(t *testing.T) {
	labels := []string{"A", "B"}
	rng := gen.NewRNG(2601)
	kinds := []string{"random", "contiguous", "edgecut", "v%k", "bfs"}
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(16)
		seed := uint64(2600 + trial)
		cfg := gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: labels, Seed: seed}
		g := gen.Uniform(cfg)
		if trial%2 == 1 {
			g = gen.PowerLaw(cfg)
		}
		k := 2 + rng.Intn(3)
		var assign []int
		switch kind := kinds[trial%len(kinds)]; kind {
		case "v%k":
			assign = make([]int, n)
			for v := range assign {
				assign[v] = v % k
			}
		case "bfs":
			assign = bfsAssign(g, k)
		default:
			p, err := fragment.ByName(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			if assign, err = p.Assign(g, k); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := fragment.Build(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		co := &Coordinator{rows: make([]atomic.Pointer[siteRows], k)}
		// One reach batch, one distance batch over the same rows.
		st := &probeState{g: fr.Graph(), rows: make([]*siteRows, k), parts: make([][]*core.Rows, k)}
		dt := &probeState{g: st.g, rows: st.rows, parts: make([][]*core.Rows, k)}
		full := make([][]*core.Rows, k) // per site, per distance query: LocalEvalDist's partial
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				if s != tt {
					st.wire = append(st.wire, BatchQuery{Class: ClassReach, S: graph.NodeID(s), T: graph.NodeID(tt)})
					for l := 0; l <= 9; l++ {
						dt.wire = append(dt.wire, BatchQuery{Class: ClassDist, S: graph.NodeID(s), T: graph.NodeID(tt), L: l})
					}
				}
			}
		}
		byTarget := make(map[graph.NodeID][]int)
		for j, q := range st.wire {
			byTarget[q.T] = append(byTarget[q.T], j)
		}
		for state, name := range []string{"built", "updated", "compacted"} {
			st.state, dt.state = uint64(state), uint64(state)
			switch state {
			case 1:
				for i := 0; i < 1+rng.Intn(3); i++ {
					u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					var err error
					if rng.Intn(3) == 0 {
						_, _, err = fr.DeleteEdge(u, v)
					} else {
						_, _, err = fr.InsertEdge(u, v)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				fr.Compact()
			}
			for i, f := range fr.Fragments() {
				// A site recomputes its rows only when its tag moved.
				if r := st.rows[i]; r == nil || r.tag != (rowsTag{fr.Instance(), f.Generation()}) {
					st.rows[i] = rowsOf(fr, i)
				}
				st.parts[i] = queryParts(f, st.wire)
				dt.parts[i] = queryParts(f, dt.wire)
				full[i] = make([]*core.Rows, len(dt.wire))
				for j, q := range dt.wire {
					full[i][j] = core.LocalEvalDist(f, q.S, q.T, q.L)
				}
			}
			for mask := 1; mask < 1<<k; mask++ {
				var order []int
				hit := make([]bool, k)
				for _, i := range rng.Perm(k) {
					if mask&(1<<i) != 0 {
						order = append(order, i)
					}
					hit[i] = rng.Intn(2) == 0
				}
				answers := probeRound(t, co, st, order, hit, rng.Intn(2) == 0)
				for target, js := range byTarget {
					sys := bes.New[graph.NodeID]()
					for _, site := range order {
						st.rows[site].rv.AddToSystemFrom(site, sys)
						for _, j := range js {
							st.parts[site][j].AddToSystemFrom(site, sys)
						}
					}
					for _, j := range js {
						q, a := st.wire[j], answers[j]
						if want := sys.Decide(q.S); a.Answer != want {
							t.Fatalf("trial %d %s, sites %v (hit %v): reach(%d,%d) = %v, the equation system says %v",
								trial, name, order, hit, q.S, target, a.Answer, want)
						}
						if want := sys.Sources(q.S); !slices.Equal(a.Touched, want) {
							t.Fatalf("trial %d %s, sites %v (hit %v): reach(%d,%d) touched %v, the equation system says %v",
								trial, name, order, hit, q.S, target, a.Touched, want)
						}
						if len(order) == k && a.Answer != st.g.Reachable(q.S, q.T) {
							t.Fatalf("trial %d %s: reach(%d,%d) = %v with every site replied, oracle %v",
								trial, name, q.S, q.T, a.Answer, !a.Answer)
						}
					}
				}
				answers = probeRound(t, co, dt, order, hit, false)
				replied := make([]*core.Rows, k)
				for j, q := range dt.wire {
					for _, site := range order {
						replied[site] = full[site][j]
					}
					d, touched := core.AssembleDist(replied, q.S)
					if d > int64(q.L) {
						d = bes.Inf
					}
					a := answers[j]
					if a.Dist != d || a.Answer != (d != bes.Inf) {
						t.Fatalf("trial %d %s, sites %v (hit %v): qbr(%d,%d,%d) = %v/%d, AssembleDist %d",
							trial, name, order, hit, q.S, q.T, q.L, a.Answer, a.Dist, d)
					}
					for _, site := range touched {
						if !slices.Contains(a.Touched, site) {
							t.Fatalf("trial %d %s, sites %v (hit %v): qbr(%d,%d,%d) touched %v, AssembleDist %v",
								trial, name, order, hit, q.S, q.T, q.L, a.Touched, touched)
						}
					}
					if len(order) == k {
						want := st.g.Dist(q.S, q.T)
						if want < 0 || want > q.L {
							want = -1
						}
						if got := a.Dist; (want < 0) != (got == bes.Inf) || want >= 0 && got != int64(want) {
							t.Fatalf("trial %d %s: qbr(%d,%d,%d) = %d with every site replied, oracle %d",
								trial, name, q.S, q.T, q.L, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRowsCacheKeepsNewerGeneration feeds one site's replies to rounds out
// of order: the round pinned at the older LSN finishes last, and must not
// roll the cached rows back to its generation, while a later generation
// replaces them. A reply from another fragmentation instance replaces the
// copy whatever its generation.
func TestRowsCacheKeepsNewerGeneration(t *testing.T) {
	co := &Coordinator{rows: make([]atomic.Pointer[siteRows], 1)}
	wire := []BatchQuery{{Class: ClassReach, S: 1, T: 2}}
	rounds := make([]*batchSolver, 4)
	for i := range rounds {
		rounds[i] = newBatchSolver(co, wire, false)
		rounds[i].reset()
	}
	for _, c := range []struct {
		round     int
		tag, want rowsTag
	}{
		{1, rowsTag{7, 5}, rowsTag{7, 5}},
		{0, rowsTag{7, 3}, rowsTag{7, 5}}, // the older round's reply, last
		{2, rowsTag{7, 6}, rowsTag{7, 6}},
		{3, rowsTag{9, 1}, rowsTag{9, 1}}, // another instance
	} {
		rows := &siteRows{tag: c.tag, rv: new(core.Rows)}
		if _, err := feedBody(rounds[c.round], 0, replyBody(t, []*core.Rows{nil}, rows)); err != nil {
			t.Fatal(err)
		}
		if got := co.rows[0].Load().tag; got != c.want {
			t.Fatalf("after a reply with rows %+v the cache holds %+v, want %+v", c.tag, got, c.want)
		}
	}
}

// TestBoundaryBuildTraced pins what a traced round shows of the boundary:
// a cold reach round builds it — at most once per reply that shipped rows,
// since each changes the rows the round stands on — in boundary.build
// spans under its round span, and says boundary=built on its solve span; a
// warm round reuses it, with no build span. Each site's rpc span names
// what its reply did about the rows: miss on the cold round, patch after a
// write dirtied the site.
func TestBoundaryBuildTraced(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 200, Edges: 800, Labels: []string{"A"}, Seed: 2602})
	fr, err := fragment.Random(g, 3, 2602)
	if err != nil {
		t.Fatal(err)
	}
	co, done := deployFr(t, fr)
	defer done()
	var traces []*obs.Trace
	co.SetTraceSink(func(tr *obs.Trace) { traces = append(traces, tr) })
	for _, c := range []struct {
		s, t  graph.NodeID
		build bool
	}{{0, 199, true}, {1, 198, false}} {
		_, st, err := co.Reach(c.s, c.t)
		if err != nil {
			t.Fatal(err)
		}
		tr := traces[len(traces)-1]
		byID := make(map[uint64]obs.Span)
		for _, sp := range tr.Spans {
			byID[sp.ID] = sp
		}
		builds, use := 0, ""
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "boundary.build":
				builds++
				if byID[sp.Parent].Name != "round" {
					t.Fatalf("boundary.build under %q, want the round span", byID[sp.Parent].Name)
				}
			case "solve":
				for _, a := range sp.Attrs {
					if a.Key == "boundary" {
						use = a.Val
					}
				}
			}
		}
		lo, hi, wantUse := 0, 0, "reused"
		if c.build {
			lo, hi, wantUse = 1, int(st.RowsReplies), "built"
		}
		if builds < lo || builds > hi || use != wantUse {
			t.Fatalf("reach(%d,%d): %d boundary.build spans after %d rows replies, solve boundary=%q; want %d to %d and %q",
				c.s, c.t, builds, st.RowsReplies, use, lo, hi, wantUse)
		}
	}
	// Each rpc span says what its site's reply did about the rows: miss
	// (full rows) on the cold round, patch from the sites a write dirtied.
	rowsOf := func(tr *obs.Trace) map[string]string {
		out := make(map[string]string)
		for _, sp := range tr.Spans {
			attrs := make(map[string]string)
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Val
			}
			if sp.Name == "rpc" {
				out[attrs["site"]] = attrs["rows"]
			}
		}
		return out
	}
	if got := rowsOf(traces[0]); !maps.Equal(got, map[string]string{"0": "miss", "1": "miss", "2": "miss"}) {
		t.Fatalf("cold round: rows per rpc span %v, want miss from every site", got)
	}
	var res UpdateResult
	for u := graph.NodeID(0); len(res.Dirty) == 0; u++ {
		if res, _, err = co.Update(UpdateInsert, u, 199-u); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := co.Reach(2, 197); err != nil {
		t.Fatal(err)
	}
	got := rowsOf(traces[len(traces)-1])
	for _, fi := range res.Dirty {
		if got[strconv.Itoa(fi)] != "patch" {
			t.Fatalf("after a write dirtying %v: rows per rpc span %v, want patch from the dirty sites", res.Dirty, got)
		}
	}
}

// TestDistanceHugeWeights: the distance search's queue does not grow with
// the weights the rows carry, and distances stay exact up to 2^31-1 — a
// chain 0 -> 1 -> ... -> 4 whose rows weigh 2^29 each, asked with the
// largest bound a query carries.
func TestDistanceHugeWeights(t *testing.T) {
	const w = 1 << 29
	chain := func(from, to graph.NodeID) *core.Rows { // Xv <= Xv+1 + w for v in [from, to)
		b := binary.AppendUvarint([]byte{1}, uint64(to-from)) // weighted, equations
		prev := graph.NodeID(0)
		for v := from; v < to; v++ {
			b = binary.AppendUvarint(b, uint64(v-prev)<<1) // node: a zigzag delta
			b = append(b, 0, 1)                            // no constant, one term
			b = binary.AppendUvarint(b, uint64(v+1))
			b = binary.AppendUvarint(b, w)
			prev = v
		}
		rv := new(core.Rows)
		if err := rv.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		return rv
	}
	bnd := buildBoundary([]*siteRows{{tag: rowsTag{1, 1}, rv: chain(1, 4)}})
	part := chain(0, 1)
	l := math.MaxInt32
	if d, touched, err := bnd.distance(0, 3, l, []bool{true}, []*core.Rows{part}); err != nil || d != 3*w || !slices.Equal(touched, []int{0}) {
		t.Fatalf("dist(0,3) over three hops of %d = %d, touched %v, %v; want %d, [0]", w, d, touched, err, 3*w)
	}
	if d, _, err := bnd.distance(0, 4, l, []bool{true}, []*core.Rows{part}); err != nil || d != bes.Inf {
		t.Fatalf("dist(0,4) = 2^31 beyond the bound 2^31-1: got %d, %v; want Inf", d, err)
	}
}
