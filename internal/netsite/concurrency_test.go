package netsite

import (
	"sync"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// wireQuery is one query of any of the three classes, with the simulation
// oracle's answer attached.
type wireQuery struct {
	class QueryClass
	s, t  graph.NodeID
	l     int
	a     *automaton.Automaton
	want  bool
}

// mixedWorkload builds n queries cycling through qr/qbr/qrr and answers
// each with the in-process cluster simulation, so the wire runtime can be
// cross-checked query by query.
func mixedWorkload(t *testing.T, g *graph.Graph, fr *fragment.Fragmentation, labels []string, n int, seed uint64) []wireQuery {
	t.Helper()
	cl := cluster.New(fr.Card(), cluster.NetModel{})
	rng := gen.NewRNG(seed)
	nn := g.NumNodes()
	qs := make([]wireQuery, 0, n)
	for len(qs) < n {
		s := graph.NodeID(rng.Intn(nn))
		tt := graph.NodeID(rng.Intn(nn))
		if s == tt {
			continue // s==t short-circuits before the wire; keep traffic real
		}
		q := wireQuery{s: s, t: tt}
		switch len(qs) % 3 {
		case 0:
			q.class = ClassReach
			q.want = core.DisReach(cl, fr, s, tt, nil).Answer
		case 1:
			q.class = ClassDist
			q.l = 1 + rng.Intn(8)
			q.want = core.DisDist(cl, fr, s, tt, q.l).Answer
		case 2:
			q.class = ClassRPQ
			q.a = automaton.Random(rng, 2+rng.Intn(2), 3+rng.Intn(4), labels)
			q.want = core.DisRPQ(cl, fr, s, tt, q.a).Answer
		}
		qs = append(qs, q)
	}
	return qs
}

// run evaluates one query over the wire and checks it against the oracle.
func (q wireQuery) run(t *testing.T, co *Coordinator) {
	var got bool
	var err error
	switch q.class {
	case ClassReach:
		got, _, err = co.Reach(q.s, q.t)
	case ClassDist:
		got, _, _, err = co.ReachWithin(q.s, q.t, q.l)
	case ClassRPQ:
		got, _, err = co.ReachRegex(q.s, q.t, q.a)
	}
	if err != nil {
		t.Error(err)
		return
	}
	if got != q.want {
		t.Errorf("class %q s=%d t=%d: wire=%v sim=%v", byte(q.class), q.s, q.t, got, q.want)
	}
}

// TestConcurrentThroughputSpeedup is the acceptance check for multiplexed
// serving: with a deterministic 10ms per-request service time at each site
// (emulating remote machines — on loopback all sites time-share this host's
// cores, so raw compute cannot parallelize), 8 concurrent in-flight
// queries must push at least 4x the throughput of the serialized baseline
// on the same deployment — and every answer, for all three query classes,
// must match the in-process cluster simulation.
func TestConcurrentThroughputSpeedup(t *testing.T) {
	labels := []string{"A", "B", "C"}
	g := gen.Uniform(gen.Config{Nodes: 120, Edges: 480, Labels: labels, Seed: 51})
	fr, err := fragment.Random(g, 3, 51)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeReplica(fragment.NewReplica(fr), SiteOptions{Delay: 10 * time.Millisecond})
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

	const nq = 48
	qs := mixedWorkload(t, g, fr, labels, nq, 52)

	// Serialized baseline: one query at a time, the pre-multiplexing mode.
	start := time.Now()
	for _, q := range qs {
		q.run(t, co)
	}
	serial := time.Since(start)

	// 8 closed-loop clients sharing the same coordinator and connections.
	const clients = 8
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nq; i += clients {
				qs[i].run(t, co)
			}
		}(w)
	}
	wg.Wait()
	concurrent := time.Since(start)
	if t.Failed() {
		return
	}

	speedup := float64(serial) / float64(concurrent)
	t.Logf("serial %v, concurrent(%d) %v — %.1fx", serial, clients, concurrent, speedup)
	if speedup < 4 {
		t.Fatalf("throughput speedup %.2fx < 4x (serial %v, concurrent %v)", speedup, serial, concurrent)
	}
}

// TestSiteDropMidFlightFailsQueries kills a site while 8 queries are in
// flight on its connection: every query must come back with an error —
// promptly, not by hanging the demultiplexer.
func TestSiteDropMidFlightFailsQueries(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 240, Seed: 53})
	fr, err := fragment.Random(g, 2, 53)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeReplica(fragment.NewReplica(fr), SiteOptions{Delay: 300 * time.Millisecond})
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

	const inflight = 8
	errc := make(chan error, inflight)
	rng := gen.NewRNG(54)
	for i := 0; i < inflight; i++ {
		s := graph.NodeID(rng.Intn(60))
		tt := graph.NodeID((int(s) + 1 + rng.Intn(59)) % 60) // s != t
		go func(s, tt graph.NodeID) {
			_, _, err := co.Reach(s, tt)
			errc <- err
		}(s, tt)
	}
	time.Sleep(50 * time.Millisecond) // let the frames reach the site
	sites[1].Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("query served by a dropped site must fail, not answer")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight query hung after its site dropped the connection")
		}
	}
	// The surviving connection keeps multiplexing for a fresh coordinator.
	co2, err := Dial(addrs[:1], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
}

// benchDeploy stands up a loopback deployment for benchmarking.
func benchDeploy(b *testing.B) (*Coordinator, []graph.NodeID, func()) {
	b.Helper()
	g := gen.PowerLaw(gen.Config{Nodes: 1000, Edges: 4000, Seed: 55})
	fr, err := fragment.Random(g, 4, 55)
	if err != nil {
		b.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		b.Fatal(err)
	}
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	rng := gen.NewRNG(56)
	pairs := make([]graph.NodeID, 256)
	for i := range pairs {
		pairs[i] = graph.NodeID(rng.Intn(1000))
	}
	return co, pairs, func() {
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// BenchmarkWireReachSerial measures one-at-a-time wire queries: the
// serialized baseline.
func BenchmarkWireReachSerial(b *testing.B) {
	co, pairs, done := benchDeploy(b)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := pairs[(2*i)%len(pairs)]
		t := pairs[(2*i+1)%len(pairs)]
		if s == t {
			t = (t + 1) % 1000
		}
		if _, _, err := co.Reach(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireReachConcurrent measures multiplexed wire queries: 8
// closed-loop clients sharing one coordinator's connections.
func BenchmarkWireReachConcurrent(b *testing.B) {
	co, pairs, done := benchDeploy(b)
	defer done()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s := pairs[(2*i)%len(pairs)]
			t := pairs[(2*i+1)%len(pairs)]
			if s == t {
				t = (t + 1) % 1000
			}
			if _, _, err := co.Reach(s, t); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
