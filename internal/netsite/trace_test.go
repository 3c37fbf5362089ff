package netsite

import (
	"context"
	"strconv"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/reachindex"
)

// TestTraceCrossCheck runs ~50 random fragmented graphs with two
// coordinators on the same deployment — one with tracing armed, one
// without — and requires identical answers and identical frame accounting
// from both: the trace flag must be an observability layer, never a
// semantic one. Along the way it pins the acceptance shape of a trace
// (every posted site, and no other, reports spans, including a timed eval
// span with the reachindex outcome) and that the guarantee auditor sees
// zero visit or byte violations with tracing on.
func TestTraceCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(97)
	for trial := 0; trial < 50; trial++ {
		n := 16 + rng.Intn(110)
		e := n + rng.Intn(4*n)
		seed := uint64(4000 + trial)
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
		k := 1 + rng.Intn(5)
		fr, err := fragment.Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			fr.EnableReachIndex(reachindex.DefaultBudget)
		}
		sites, addrs, err := ServeFragmentation(fr)
		if err != nil {
			t.Fatal(err)
		}
		coT, err := Dial(addrs, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		coU, err := Dial(addrs, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Anytime rounds terminate early nondeterministically; frame-count
		// equality is only meaningful for full rounds. A third of the
		// trials keep anytime on and compare answers only.
		anytime := trial%3 == 2
		coT.SetAnytime(anytime)
		coU.SetAnytime(anytime)

		var traces []*obs.Trace
		coT.SetTraceSink(func(tr *obs.Trace) { traces = append(traces, tr) })
		aud := obs.NewAuditor()
		coT.SetAuditor(aud)

		for q := 0; q < 6; q++ {
			s := graph.NodeID(rng.Intn(nn))
			tt := graph.NodeID(rng.Intn(nn))
			var ansT, ansU bool
			var stT, stU WireStats
			var errT, errU error
			switch q % 3 {
			case 0:
				ansT, stT, errT = coT.Reach(s, tt)
				ansU, stU, errU = coU.Reach(s, tt)
			case 1:
				l := rng.Intn(9)
				var dT, dU int64
				ansT, dT, stT, errT = coT.ReachWithin(s, tt, l)
				ansU, dU, stU, errU = coU.ReachWithin(s, tt, l)
				if errT == nil && errU == nil && ansT && dT != dU {
					t.Fatalf("trial %d query %d: traced dist %d, untraced %d", trial, q, dT, dU)
				}
			case 2:
				a := automaton.Random(rng, 2+rng.Intn(3), 3+rng.Intn(6), labels)
				ansT, stT, errT = coT.ReachRegex(s, tt, a)
				ansU, stU, errU = coU.ReachRegex(s, tt, a)
			}
			if (errT == nil) != (errU == nil) {
				t.Fatalf("trial %d query %d: traced err=%v, untraced err=%v", trial, q, errT, errU)
			}
			if errT != nil {
				continue
			}
			if ansT != ansU {
				t.Fatalf("trial %d query %d (%d->%d): traced=%v untraced=%v", trial, q, s, tt, ansT, ansU)
			}
			if !anytime && (stT.FramesSent != stU.FramesSent || stT.FramesReceived != stU.FramesReceived) {
				t.Fatalf("trial %d query %d: traced %d/%d frames, untraced %d/%d — the trace flag changed the round shape",
					trial, q, stT.FramesSent, stT.FramesReceived, stU.FramesSent, stU.FramesReceived)
			}
			if stT.FramesSent > 0 && stT.TraceID == 0 {
				t.Fatalf("trial %d query %d: wire round but no trace ID", trial, q)
			}
			if stU.TraceID != 0 {
				t.Fatalf("trial %d query %d: untraced coordinator reported trace %x", trial, q, stU.TraceID)
			}

			// Acceptance shape: the full-round trace carries ≥1 span from
			// every posted site, including a timed eval span with the
			// reachindex outcome.
			if !anytime && stT.FramesSent > 0 {
				if len(traces) == 0 {
					t.Fatalf("trial %d query %d: no trace collected", trial, q)
				}
				tr := traces[len(traces)-1]
				if tr.ID != stT.TraceID {
					t.Fatalf("trial %d query %d: trace %x collected, stats say %x", trial, q, tr.ID, stT.TraceID)
				}
				evals := make([]bool, k)
				siteSpans := make([]int, k)
				posted := make([]bool, k)
				var rpcs int64
				for _, sp := range tr.Spans {
					if sp.Name == "rpc" {
						rpcs++
						for _, at := range sp.Attrs {
							if i, err := strconv.Atoi(at.Val); at.Key == "site" && err == nil && i >= 0 && i < k {
								posted[i] = true
							}
						}
					}
					if sp.Site >= 0 && sp.Site < k {
						siteSpans[sp.Site]++
						if sp.Name == "eval" {
							outcome := false
							for _, at := range sp.Attrs {
								if at.Key == "reachindex_outcome" {
									outcome = true
								}
							}
							if !outcome {
								t.Fatalf("trial %d query %d site %d: eval span without reachindex_outcome: %+v",
									trial, q, sp.Site, sp.Attrs)
							}
							evals[sp.Site] = true
						}
					}
				}
				if rpcs != stT.FramesSent {
					t.Fatalf("trial %d query %d: %d rpc spans for %d frames sent", trial, q, rpcs, stT.FramesSent)
				}
				for i := 0; i < k; i++ {
					if !posted[i] {
						if siteSpans[i] != 0 {
							t.Fatalf("trial %d query %d: site %d reported spans but was not posted", trial, q, i)
						}
						continue
					}
					if siteSpans[i] == 0 {
						t.Fatalf("trial %d query %d: contacted site %d reported no spans", trial, q, i)
					}
					if !evals[i] {
						t.Fatalf("trial %d query %d: site %d reported no eval span", trial, q, i)
					}
				}
			}
		}

		// One more input: a mixed-class batch, traced vs untraced.
		mixed := []BatchQuery{
			{Class: ClassReach, S: graph.NodeID(rng.Intn(nn)), T: graph.NodeID(rng.Intn(nn))},
			{Class: ClassDist, S: graph.NodeID(rng.Intn(nn)), T: graph.NodeID(rng.Intn(nn)), L: 1 + rng.Intn(8)},
			{Class: ClassRPQ, S: graph.NodeID(rng.Intn(nn)), T: graph.NodeID(rng.Intn(nn)), A: automaton.Random(rng, 2, 4, labels)},
		}
		ansT, stT, errT := coT.Batch(mixed)
		ansU, stU, errU := coU.Batch(mixed)
		if errT != nil || errU != nil {
			t.Fatalf("trial %d mixed batch: traced err=%v, untraced err=%v", trial, errT, errU)
		}
		for i := range mixed {
			if ansT[i].Answer != ansU[i].Answer || ansT[i].Dist != ansU[i].Dist {
				t.Fatalf("trial %d mixed batch query %d: traced=%+v untraced=%+v", trial, i, ansT[i], ansU[i])
			}
		}
		if stT.FramesSent != stU.FramesSent || stT.FramesReceived != stU.FramesReceived {
			t.Fatalf("trial %d mixed batch: traced %d/%d frames, untraced %d/%d",
				trial, stT.FramesSent, stT.FramesReceived, stU.FramesSent, stU.FramesReceived)
		}
		if stT.FramesSent > 0 && (stT.TraceID == 0 || traces[len(traces)-1].ID != stT.TraceID) {
			t.Fatalf("trial %d mixed batch: wire round without its trace", trial)
		}

		if v := aud.Violations(); v != 0 {
			t.Fatalf("trial %d: auditor counted %d guarantee violations: %+v", trial, v, aud.Summary())
		}
		if s := aud.Summary(); s.Rounds == 0 {
			t.Fatalf("trial %d: auditor observed no rounds with tracing on", trial)
		}

		coT.Close()
		coU.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// TestWireAccounting pins the satellite accounting invariant: the sum of
// per-operation WireStats across queries, batches, updates and a
// replication round equals exactly what crossed the wire, as counted at
// the connections (WireTotals). The one legal divergence is anytime early
// termination, where straggler finals land after the round returned —
// there the connection totals may only exceed the per-round sums, never
// trail them.
func TestWireAccounting(t *testing.T) {
	labels := []string{"A", "B"}
	rng := gen.NewRNG(11)
	g := gen.Uniform(gen.Config{Nodes: 120, Edges: 420, Labels: labels, Seed: 5})
	fr, err := fragment.Random(g, 3, 5)
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
	co.SetAnytime(false)

	// Warm up the sequencer adoption hello (deliberately outside any
	// update's per-round stats) before the baseline snapshot.
	if _, _, err := co.Apply([]Op{{Kind: OpInsertEdge, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	sent0, recv0 := co.WireTotals()

	var sumSent, sumRecv int64
	acc := func(st WireStats) {
		sumSent += st.BytesSent
		sumRecv += st.BytesReceived
	}

	nn := g.NumNodes()
	for i := 0; i < 8; i++ {
		s, tt := graph.NodeID(rng.Intn(nn)), graph.NodeID(rng.Intn(nn))
		switch i % 3 {
		case 0:
			_, st, err := co.Reach(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			acc(st)
		case 1:
			_, _, st, err := co.ReachWithin(s, tt, 4)
			if err != nil {
				t.Fatal(err)
			}
			acc(st)
		case 2:
			a := automaton.Random(rng, 3, 5, labels)
			_, st, err := co.ReachRegex(s, tt, a)
			if err != nil {
				t.Fatal(err)
			}
			acc(st)
		}
	}
	for _, qs := range [][]BatchQuery{
		{{Class: ClassReach, S: 1, T: 40}, {Class: ClassDist, S: 2, T: 50, L: 5}},
		{{Class: ClassRPQ, S: 3, T: 60, A: automaton.Random(rng, 3, 5, labels)}}, // a batch of one
	} {
		_, st, err := co.Batch(qs)
		if err != nil {
			t.Fatal(err)
		}
		acc(st)
	}
	if _, st, err := co.Apply([]Op{
		{Kind: OpInsertEdge, U: 3, V: 77},
		{Kind: OpDeleteEdge, U: 0, V: 1},
	}); err != nil {
		t.Fatal(err)
	} else {
		acc(st)
	}
	// Sync traffic ('S' hellos and any replay) flows outside query rounds;
	// the report's WireSent/WireReceived must close that gap.
	rep, err := co.SyncReplicas(context.Background(), SyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WireSent == 0 || rep.WireReceived == 0 {
		t.Fatalf("sync reported no wire traffic: %+v", rep)
	}
	sumSent += rep.WireSent
	sumRecv += rep.WireReceived

	sent1, recv1 := co.WireTotals()
	if got, want := sent1-sent0, sumSent; got != want {
		t.Fatalf("sent bytes: connections counted %d, per-round stats sum to %d", got, want)
	}
	if got, want := recv1-recv0, sumRecv; got != want {
		t.Fatalf("received bytes: connections counted %d, per-round stats sum to %d", got, want)
	}

	// Anytime leg: a round writes nothing after its requests (sent-side
	// equality must hold); straggler replies may drain after the round
	// (received-side is a lower bound).
	co.SetAnytime(true)
	sent0, recv0 = co.WireTotals()
	sumSent, sumRecv = 0, 0
	for i := 0; i < 10; i++ {
		s, tt := graph.NodeID(rng.Intn(nn)), graph.NodeID(rng.Intn(nn))
		_, st, err := co.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		acc(st)
		qs := []BatchQuery{{Class: ClassReach, S: tt, T: s}}
		if i%2 == 1 {
			qs = append(qs, BatchQuery{Class: ClassDist, S: s, T: tt, L: 4})
		}
		if _, st, err = co.Batch(qs); err != nil {
			t.Fatal(err)
		}
		acc(st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sent1, recv1 = co.WireTotals()
		if sent1-sent0 == sumSent || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sent1 - sent0; got != sumSent {
		t.Fatalf("anytime sent bytes: connections counted %d, per-round stats sum to %d", got, sumSent)
	}
	if got := recv1 - recv0; got < sumRecv {
		t.Fatalf("anytime received bytes: connections counted %d, per-round stats claim %d", got, sumRecv)
	}
}
