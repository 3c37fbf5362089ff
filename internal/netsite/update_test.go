package netsite

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// pickEdge returns a random existing edge of g.
func pickEdge(g *graph.Graph, rng *gen.RNG) (graph.NodeID, graph.NodeID) {
	var edges [][2]graph.NodeID
	g.Edges(func(u, v graph.NodeID) bool {
		edges = append(edges, [2]graph.NodeID{u, v})
		return true
	})
	e := edges[rng.Intn(len(edges))]
	return e[0], e[1]
}

// TestUpdateWireCrossCheck is the randomized acceptance check for live
// updates: ~50 random fragmented graphs, each hit with a sequence of
// random edge inserts and deletes over real TCP. After every applied
// update,
//
//   - the wire result (changed flag + dirty set) must equal what an
//     independent replica fragmentation computes for the same op,
//   - the sites' (shared) fragmentation must still validate,
//   - wire query answers must equal a from-scratch DisReach on a
//     fragmentation rebuilt from the mutated graph, and the plain BFS
//     oracle on that graph.
//
// CI runs it under the race detector: the update path excludes concurrent
// query evaluation via the fragmentation lock.
func TestUpdateWireCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(91)
	for trial := 0; trial < 50; trial++ {
		n := 12 + rng.Intn(80)
		e := n + rng.Intn(3*n)
		seed := uint64(3000 + trial)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 1:
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 2:
			g = gen.Layered(2+rng.Intn(4), 3+rng.Intn(6), 0.3, labels, seed)
		}
		nn := g.NumNodes()
		k := 1 + rng.Intn(5)
		fr, err := fragment.Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, nn)
		for v := range assign {
			assign[v] = fr.Owner(graph.NodeID(v))
		}
		// Independent replica: the separate-process form of a site, fed the
		// same updates locally. Its results must match the wire's exactly.
		mirror := g.Clone()
		rep, err := fragment.Build(mirror, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		sites, addrs, err := ServeFragmentation(fr)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Dial(addrs, 2*time.Second)
		if err != nil {
			for _, s := range sites {
				s.Close()
			}
			t.Fatal(err)
		}

		cl := cluster.New(k, cluster.NetModel{})
		for step := 0; step < 8; step++ {
			var u, v graph.NodeID
			op := UpdateInsert
			if rng.Intn(2) == 0 && mirror.NumEdges() > 0 {
				op = UpdateDelete
				u, v = pickEdge(mirror, rng)
			} else {
				u = graph.NodeID(rng.Intn(nn))
				v = graph.NodeID(rng.Intn(nn))
			}
			res, st, err := co.Update(op, u, v)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if st.FramesSent != int64(k) || st.FramesReceived != int64(k) {
				t.Fatalf("trial %d step %d: update round cost %d/%d frames, want %d each",
					trial, step, st.FramesSent, st.FramesReceived, k)
			}
			var repDirty []int
			var repChanged bool
			if op == UpdateInsert {
				repDirty, repChanged, err = rep.InsertEdge(u, v)
			} else {
				repDirty, repChanged, err = rep.DeleteEdge(u, v)
			}
			if err != nil {
				t.Fatalf("trial %d step %d: replica: %v", trial, step, err)
			}
			if res.Changed != repChanged {
				t.Fatalf("trial %d step %d: wire changed=%v replica=%v (%c %d->%d)",
					trial, step, res.Changed, repChanged, op, u, v)
			}
			if len(res.Dirty) != len(repDirty) {
				t.Fatalf("trial %d step %d: wire dirty %v, replica %v", trial, step, res.Dirty, repDirty)
			}
			for i := range res.Dirty {
				if res.Dirty[i] != repDirty[i] {
					t.Fatalf("trial %d step %d: wire dirty %v, replica %v", trial, step, res.Dirty, repDirty)
				}
			}
			if err := fr.Validate(); err != nil {
				t.Fatalf("trial %d step %d: shared fragmentation invalid: %v", trial, step, err)
			}
			// From-scratch rebuild on the mutated graph: the wire answers
			// must match its DisReach and the plain BFS oracle.
			scratch, err := fragment.Build(mirror, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 5; q++ {
				s := graph.NodeID(rng.Intn(nn))
				tt := graph.NodeID(rng.Intn(nn))
				got, _, err := co.Reach(s, tt)
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if want := core.DisReach(cl, scratch, s, tt).Answer; got != want {
					t.Fatalf("trial %d step %d: qr(%d,%d) wire=%v from-scratch DisReach=%v",
						trial, step, s, tt, got, want)
				}
				if want := mirror.Reachable(s, tt); got != want {
					t.Fatalf("trial %d step %d: qr(%d,%d) wire=%v BFS oracle=%v",
						trial, step, s, tt, got, want)
				}
			}
			// One bounded query per step keeps the dist path honest too.
			s := graph.NodeID(rng.Intn(nn))
			tt := graph.NodeID(rng.Intn(nn))
			l := 1 + rng.Intn(6)
			got, _, _, err := co.ReachWithin(s, tt, l)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			d := mirror.Dist(s, tt)
			if want := d >= 0 && d <= l; got != want {
				t.Fatalf("trial %d step %d: qbr(%d,%d,%d) wire=%v oracle dist=%d",
					trial, step, s, tt, l, got, d)
			}
		}
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// TestUpdateConcurrentWithQueries floods a deployment with queries while
// an updater mutates edges: no call may error or race (CI runs -race);
// while an insert-only writer runs, every answer must lie between the
// oracle before the query and after it; and once the churn stops, answers
// must match a from-scratch oracle on the final graph.
func TestUpdateConcurrentWithQueries(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 120, Edges: 480, Labels: []string{"A", "B"}, Seed: 95})
	fr, err := fragment.Random(g, 3, 95)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 5)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := gen.NewRNG(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := co.Reach(graph.NodeID(rng.Intn(120)), graph.NodeID(rng.Intn(120))); err != nil {
					errc <- err
					return
				}
			}
		}(uint64(200 + w))
	}
	rng := gen.NewRNG(96)
	for i := 0; i < 60; i++ {
		op := UpdateInsert
		if i%2 == 1 {
			op = UpdateDelete
		}
		if _, _, err := co.Update(op, graph.NodeID(rng.Intn(120)), graph.NodeID(rng.Intn(120))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}

	// Second phase, answers checked while the writer runs: with inserts
	// only, reachability grows with the update log, so a query issued after
	// c0 batches were acknowledged and answered when c1 were (one more may
	// be in flight) must lie between the oracle at c0 and at c1+1 — whatever
	// mix of cold sites, current rows and rows a concurrent round replaced
	// mid-flight it was assembled from. A round that swapped in a copy other
	// than the one whose tag it sent shows as an error or under -race.
	const inserts = 40
	edges := make([][2]graph.NodeID, inserts)
	states := []*graph.Graph{fr.Graph().Clone()} // states[j]: after j inserts
	for j := range edges {
		edges[j] = [2]graph.NodeID{graph.NodeID(rng.Intn(120)), graph.NodeID(rng.Intn(120))}
		next := states[j].Clone()
		next.InsertEdge(edges[j][0], edges[j][1])
		states = append(states, next)
	}
	type sample struct {
		s, t   graph.NodeID
		c0, c1 int
		got    bool
	}
	var applied atomic.Int64
	stop = make(chan struct{})
	samples := make([][]sample, 4)
	for w := range samples {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := gen.NewRNG(uint64(300 + w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sm := sample{s: graph.NodeID(rng.Intn(120)), t: graph.NodeID(rng.Intn(120)), c0: int(applied.Load())}
				got, _, err := co.Reach(sm.s, sm.t)
				if err != nil {
					errc <- err
					return
				}
				sm.got, sm.c1 = got, int(applied.Load())
				samples[w] = append(samples[w], sm)
			}
		}(w)
	}
	for _, e := range edges {
		if _, _, err := co.Update(UpdateInsert, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		applied.Add(1)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checked := 0
	for _, ss := range samples {
		for _, sm := range ss {
			lo, hi := states[sm.c0].Reachable(sm.s, sm.t), states[min(sm.c1+1, inserts)].Reachable(sm.s, sm.t)
			if (lo && !sm.got) || (sm.got && !hi) {
				t.Fatalf("qr(%d,%d) = %v between batches %d and %d: oracle says %v before, %v after",
					sm.s, sm.t, sm.got, sm.c0, sm.c1+1, lo, hi)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no query completed beside the writer")
	}
	// Quiescent again: answers equal the oracle on the mutated graph.
	for q := 0; q < 30; q++ {
		s := graph.NodeID(rng.Intn(120))
		tt := graph.NodeID(rng.Intn(120))
		got, _, err := co.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := fr.Graph().Reachable(s, tt); got != want {
			t.Fatalf("after churn: qr(%d,%d) wire=%v oracle=%v", s, tt, got, want)
		}
	}
}
