package netsite

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// stragglerDeployment builds the two-component skew topology the anytime
// protocol is designed for: a chain a0→…→a(na-1) alternating between
// fragments 0 and 1 (fast sites), and an isolated chain b0→…→b(nb-1)
// owned entirely by fragment 2 (the straggler). Reachability inside the
// a-chain has its whole certificate on the fast sites, so an anytime round
// can answer without ever hearing from the straggler.
func stragglerDeployment(t *testing.T, na, nb int) (*fragment.Fragmentation, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(na + nb)
	a0 := b.AddNodes(na, "A")
	b0 := b.AddNodes(nb, "B")
	for i := 0; i < na-1; i++ {
		b.AddEdge(a0+graph.NodeID(i), a0+graph.NodeID(i+1))
	}
	for i := 0; i < nb-1; i++ {
		b.AddEdge(b0+graph.NodeID(i), b0+graph.NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, na+nb)
	for i := 0; i < na; i++ {
		assign[int(a0)+i] = i % 2
	}
	for i := 0; i < nb; i++ {
		assign[int(b0)+i] = 2
	}
	fr, err := fragment.Build(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fr, a0, b0
}

// serveSkewed starts one site per fragment with per-site service delays.
func serveSkewed(t *testing.T, fr *fragment.Fragmentation, delays []time.Duration) ([]*Site, []string) {
	t.Helper()
	rep := fragment.NewReplica(fr)
	sites := make([]*Site, 0, fr.Card())
	addrs := make([]string, 0, fr.Card())
	for i, f := range fr.Fragments() {
		s, err := NewSiteReplica("127.0.0.1:0", rep, f.ID, SiteOptions{Delay: delays[i]})
		if err != nil {
			for _, prev := range sites {
				prev.Close()
			}
			t.Fatal(err)
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	return sites, addrs
}

// TestAnytimeEarlyTermination pins the protocol's point: with one site at
// a 10x+ service delay, a reach query whose certificate avoids that site
// answers at fast-site latency (EarlyTerminated, straggler histogram
// bumped, nothing written to the straggler, whose late reply is drained),
// while a false answer — which needs every site's complete equations —
// still waits the straggler out.
func TestAnytimeEarlyTermination(t *testing.T) {
	const slow = 250 * time.Millisecond
	fr, a0, b0 := stragglerDeployment(t, 12, 4)
	sites, addrs := serveSkewed(t, fr, []time.Duration{0, 0, slow})
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
	if !co.Anytime() {
		t.Fatal("anytime must be on by default")
	}

	// True inside the fast chain: decided before the straggler answers.
	posted := time.Now()
	ok, st, err := co.Reach(a0, a0+11)
	if err != nil || !ok {
		t.Fatalf("reach(a0,a11) = %v, %v; want true", ok, err)
	}
	if !st.EarlyTerminated {
		t.Fatalf("true answer with a certificate on fast sites must early-terminate: %+v", st)
	}
	if st.FirstAnswer >= slow-50*time.Millisecond {
		t.Fatalf("first answer took %v, straggler delay is %v — no early win", st.FirstAnswer, slow)
	}
	if st.CancelFrames != 0 {
		t.Fatalf("early termination must write nothing to the straggler: %+v", st)
	}
	// The straggler still replies, after the round; the read loop drains
	// the reply, and no pending entry is left behind.
	if n := co.pendingTotal(); n != 0 {
		t.Fatalf("%d pending entries right after the early round", n)
	}
	for co.conns[2].bytesReceived.Load() == 0 {
		if time.Since(posted) > 5*time.Second {
			t.Fatal("the straggler's late reply never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(posted); waited < slow {
		t.Fatalf("the straggler's reply arrived %v after the post, before its %v delay", waited, slow)
	}
	if n := co.pendingTotal(); n != 0 {
		t.Fatalf("%d pending entries after the late reply drained", n)
	}

	// False across components: every site's equations are needed, so the
	// full round — straggler included — is waited out.
	ok, st, err = co.Reach(a0+11, a0)
	if err != nil || ok {
		t.Fatalf("reach(a11,a0) = %v, %v; want false", ok, err)
	}
	if st.EarlyTerminated {
		t.Fatalf("a false answer can never early-terminate: %+v", st)
	}
	if st.RoundTrip < slow-50*time.Millisecond {
		t.Fatalf("false answer finished in %v, before the straggler (%v) could answer", st.RoundTrip, slow)
	}

	// All-true reach batch: early, at fast-site latency.
	answers, st, err := co.Batch([]BatchQuery{
		{Class: ClassReach, S: a0, T: a0 + 5},
		{Class: ClassReach, S: a0 + 1, T: a0 + 7},
	})
	if err != nil || !answers[0].Answer || !answers[1].Answer {
		t.Fatalf("all-true batch: %+v, %v", answers, err)
	}
	if !st.EarlyTerminated || st.FirstAnswer >= slow-50*time.Millisecond {
		t.Fatalf("all-true batch must early-terminate fast: %+v", st)
	}

	// A batch with one false query waits the full round.
	answers, st, err = co.Batch([]BatchQuery{
		{Class: ClassReach, S: a0, T: a0 + 5},
		{Class: ClassReach, S: a0, T: b0},
	})
	if err != nil || !answers[0].Answer || answers[1].Answer {
		t.Fatalf("mixed-truth batch: %+v, %v", answers, err)
	}
	if st.EarlyTerminated || st.RoundTrip < slow-50*time.Millisecond {
		t.Fatalf("a batch with a false member cannot early-terminate: %+v", st)
	}

	as := co.AnytimeStats()
	if as.EarlyTerminations < 2 {
		t.Fatalf("anytime counters not accumulating: %+v", as)
	}
	if len(as.Stragglers) != 3 || as.Stragglers[2] < 1 {
		t.Fatalf("straggler histogram must blame site 2: %+v", as.Stragglers)
	}
	if as.Stragglers[2] <= as.Stragglers[0] && as.Stragglers[2] <= as.Stragglers[1] {
		t.Fatalf("site 2 must dominate the straggler histogram: %+v", as.Stragglers)
	}

	// The sites share one replica and the coordinator now holds every
	// site's rows: a false answer whose nodes the straggler does not own
	// posts to the two owners only, and the first reply vouches for the
	// straggler's rows.
	ok, st, err = co.Reach(a0+11, a0)
	if err != nil || ok {
		t.Fatalf("warm reach(a11,a0) = %v, %v; want false", ok, err)
	}
	if st.FramesSent != 2 || st.RoundTrip >= slow-50*time.Millisecond {
		t.Fatalf("warm false answer posted %d frames in %v; want the two owners, at fast-site latency", st.FramesSent, st.RoundTrip)
	}

	// Off means off: the same query, posted to the straggler — its rows
	// marked stale, so that it must reply — pays the full round again.
	co.SetAnytime(false)
	co.markStale([]int{2}, co.heldTags())
	ok, st, err = co.Reach(a0, a0+11)
	if err != nil || !ok || st.EarlyTerminated {
		t.Fatalf("full round: %v %+v %v", ok, st, err)
	}
	if st.RoundTrip < slow-50*time.Millisecond {
		t.Fatalf("full round finished in %v, before the straggler (%v)", st.RoundTrip, slow)
	}
	if st.FirstAnswer != st.RoundTrip {
		t.Fatalf("full rounds define FirstAnswer = RoundTrip: %+v", st)
	}
}

// TestAnytimeCrossCheck is the anytime acceptance check: 50 random
// fragmented graphs — alternating indexed and direct evaluation — each
// driven through wire edge churn and a live rebalance, with every query
// evaluated both anytime and full-round and both compared to the local
// oracle. A sprinkling of context-cancelled queries exercises mid-query
// cancellation under the same churn. Zero mismatches tolerated.
func TestAnytimeCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(411)
	for trial := 0; trial < 50; trial++ {
		n := 12 + rng.Intn(70)
		e := n + rng.Intn(3*n)
		seed := uint64(9100 + trial)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 1:
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 2:
			g = gen.Layered(2+rng.Intn(4), 3+rng.Intn(8), 0.3, labels, seed)
		}
		nn := g.NumNodes()
		k := 1 + rng.Intn(4)
		fr, err := fragment.Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			fr.EnableReachIndex(1 << 20) // indexed trials; even trials run direct
		}
		mirror := g.Clone()
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

		epoch := uint64(0)
		for step := 0; step < 4; step++ {
			// Wire edge churn, mirrored locally for the oracle.
			for i := 0; i < 1+rng.Intn(3); i++ {
				u := graph.NodeID(rng.Intn(nn))
				v := graph.NodeID(rng.Intn(nn))
				if rng.Intn(3) == 0 {
					if _, _, err := co.Update(UpdateDelete, u, v); err != nil {
						t.Fatalf("trial %d: delete(%d,%d): %v", trial, u, v, err)
					}
					mirror.DeleteEdge(u, v)
				} else {
					if _, _, err := co.Update(UpdateInsert, u, v); err != nil {
						t.Fatalf("trial %d: insert(%d,%d): %v", trial, u, v, err)
					}
					mirror.InsertEdge(u, v)
				}
			}
			if step == 2 {
				epoch++
				if _, _, err := co.Rebalance(epoch, seed); err != nil {
					t.Fatalf("trial %d: rebalance: %v", trial, err)
				}
			}
			for q := 0; q < 5; q++ {
				s := graph.NodeID(rng.Intn(nn))
				tt := graph.NodeID(rng.Intn(nn))
				want := mirror.Reachable(s, tt)
				co.SetAnytime(true)
				anyAns, ast, err := co.Reach(s, tt)
				if err != nil {
					t.Fatalf("trial %d step %d: anytime reach(%d,%d): %v", trial, step, s, tt, err)
				}
				co.SetAnytime(false)
				fullAns, fst, err := co.Reach(s, tt)
				if err != nil {
					t.Fatalf("trial %d step %d: full reach(%d,%d): %v", trial, step, s, tt, err)
				}
				if anyAns != want || fullAns != want {
					t.Fatalf("trial %d step %d: reach(%d,%d) anytime=%v full=%v oracle=%v (early=%v)",
						trial, step, s, tt, anyAns, fullAns, want, ast.EarlyTerminated)
				}
				// Same equations, same closure — unless the anytime round was
				// decided on a subset of them, whose closure is a subset.
				if !touchedAgree(ast.Touched, fst.Touched, ast.EarlyTerminated) {
					t.Fatalf("trial %d step %d: reach(%d,%d) touched anytime=%v full=%v (early=%v)",
						trial, step, s, tt, ast.Touched, fst.Touched, ast.EarlyTerminated)
				}
			}
			// All-reach batch, anytime vs full-round vs oracle.
			qs := make([]BatchQuery, 4)
			for i := range qs {
				qs[i] = BatchQuery{Class: ClassReach, S: graph.NodeID(rng.Intn(nn)), T: graph.NodeID(rng.Intn(nn))}
			}
			co.SetAnytime(true)
			anyAns, bst, err := co.Batch(qs)
			if err != nil {
				t.Fatalf("trial %d step %d: anytime batch: %v", trial, step, err)
			}
			co.SetAnytime(false)
			fullAns, _, err := co.Batch(qs)
			if err != nil {
				t.Fatalf("trial %d step %d: full batch: %v", trial, step, err)
			}
			for i, q := range qs {
				want := mirror.Reachable(q.S, q.T)
				if anyAns[i].Answer != want || fullAns[i].Answer != want ||
					!touchedAgree(anyAns[i].Touched, fullAns[i].Touched, bst.EarlyTerminated) {
					t.Fatalf("trial %d step %d: batch q%d (%d,%d) anytime=%+v full=%+v oracle=%v",
						trial, step, i, q.S, q.T, anyAns[i], fullAns[i], want)
				}
			}
			// Mixed-class batch: early decision stays off, both modes run
			// the same strict round and must agree with each other and
			// the oracle, Touched included.
			mixed := []BatchQuery{
				qs[0],
				{Class: ClassDist, S: qs[1].S, T: qs[1].T, L: 1 + rng.Intn(6)},
				{Class: ClassRPQ, S: qs[2].S, T: qs[2].T, A: automaton.Random(rng, 2, 4, labels)},
			}
			co.SetAnytime(true)
			anyMixed, ast, err := co.Batch(mixed)
			if err != nil {
				t.Fatalf("trial %d step %d: anytime mixed batch: %v", trial, step, err)
			}
			co.SetAnytime(false)
			fullMixed, _, err := co.Batch(mixed)
			if err != nil {
				t.Fatalf("trial %d step %d: full mixed batch: %v", trial, step, err)
			}
			d := mirror.Dist(mixed[1].S, mixed[1].T)
			wantMixed := []bool{
				mirror.Reachable(mixed[0].S, mixed[0].T),
				d >= 0 && d <= mixed[1].L,
				automaton.Eval(mirror, mixed[2].S, mixed[2].T, mixed[2].A),
			}
			if ast.EarlyTerminated {
				t.Fatalf("trial %d step %d: a mixed-class round ended early: %+v", trial, step, ast)
			}
			for i := range mixed {
				if anyMixed[i].Answer != wantMixed[i] || fullMixed[i].Answer != wantMixed[i] ||
					!slices.Equal(anyMixed[i].Touched, fullMixed[i].Touched) {
					t.Fatalf("trial %d step %d: mixed q%d anytime=%+v full=%+v oracle=%v",
						trial, step, i, anyMixed[i], fullMixed[i], wantMixed[i])
				}
			}
			// Mid-query cancellation under churn: a context cancelled while
			// the round is in flight must yield either the right answer or a
			// context error — never a wrong answer — and leave no pending
			// entries behind.
			co.SetAnytime(true)
			ctx, cancel := context.WithCancel(context.Background())
			s := graph.NodeID(rng.Intn(nn))
			tt := graph.NodeID(rng.Intn(nn))
			done := make(chan struct{})
			var gotAns bool
			var gotErr error
			go func() {
				gotAns, _, gotErr = co.ReachContext(ctx, s, tt)
				close(done)
			}()
			if rng.Intn(2) == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			cancel()
			<-done
			if gotErr == nil && gotAns != mirror.Reachable(s, tt) {
				t.Fatalf("trial %d step %d: cancelled reach(%d,%d) answered wrongly %v", trial, step, s, tt, gotAns)
			}
			if gotErr != nil && !errors.Is(gotErr, context.Canceled) {
				t.Fatalf("trial %d step %d: cancelled reach(%d,%d): %v", trial, step, s, tt, gotErr)
			}
		}
		if n := co.pendingTotal(); n != 0 {
			t.Fatalf("trial %d: %d pending entries leaked", trial, n)
		}
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// touchedAgree compares an anytime round's Touched set with the strict
// round's: equal for a round that ran to completion, a subset for one
// decided early (its certificate's closure lies inside the full one).
func touchedAgree(anytime, full []int, early bool) bool {
	if !early {
		return slices.Equal(anytime, full)
	}
	for _, site := range anytime {
		if !slices.Contains(full, site) {
			return false
		}
	}
	return true
}

// waitPendingDrained polls until the coordinator's pending tables are
// empty, failing after a deadline.
func waitPendingDrained(t *testing.T, co *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.pendingTotal() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries never drained", co.pendingTotal())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnytimePendingNoLeak drives anytime rounds through the three ways a
// query can die mid-stream — context timeout, context cancellation, and a
// site dropping — and checks that the pending tables drain, late frames
// are discarded, and no goroutine outlives the shutdown.
func TestAnytimePendingNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	fr, a0, _ := stragglerDeployment(t, 10, 4)
	sites, addrs := serveSkewed(t, fr, []time.Duration{200 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond})
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: timeouts mid-stream. The unreachable pair needs every final,
	// so the 30ms deadline always fires first.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, _, err := co.ReachContext(ctx, a0+9, a0); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("timed-out query returned %v, want deadline exceeded", err)
			}
		}()
	}
	wg.Wait()
	waitPendingDrained(t, co)

	// Phase 2: explicit cancellation mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := co.ReachContext(ctx, a0+9, a0)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	waitPendingDrained(t, co)

	// Phase 3: a site drops mid-stream. In-flight rounds must fail
	// promptly, not hang on the dead connection.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := co.Reach(a0+9, a0)
			done <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // frames are at the sites, mid-delay
	sites[2].Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("a query spanning a dropped site cannot answer false without it")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("query hung after its site dropped")
		}
	}
	waitPendingDrained(t, co)

	co.Close()
	for _, s := range sites {
		s.Close()
	}
	if n := countGoroutines(t, before+2); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, n)
	}
}
