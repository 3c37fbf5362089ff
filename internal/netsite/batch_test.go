package netsite

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// batchWorkload builds n mixed-class batch queries with oracle answers
// computed on the unfragmented graph.
func batchWorkload(g *graph.Graph, labels []string, n int, seed uint64) ([]BatchQuery, []bool) {
	rng := gen.NewRNG(seed)
	nn := g.NumNodes()
	qs := make([]BatchQuery, 0, n)
	want := make([]bool, 0, n)
	for len(qs) < n {
		s := graph.NodeID(rng.Intn(nn))
		t := graph.NodeID(rng.Intn(nn))
		q := BatchQuery{S: s, T: t}
		switch len(qs) % 3 {
		case 0:
			q.Class = ClassReach
			want = append(want, g.Reachable(s, t))
		case 1:
			q.Class = ClassDist
			q.L = 1 + rng.Intn(8)
			d := g.Dist(s, t)
			want = append(want, d >= 0 && d <= q.L)
		case 2:
			q.Class = ClassRPQ
			q.A = automaton.Random(rng, 2+rng.Intn(2), 3+rng.Intn(5), labels)
			want = append(want, automaton.Eval(g, s, t, q.A))
		}
		qs = append(qs, q)
	}
	return qs, want
}

// TestBatchOneFramePerSite is the acceptance check for wire batching: a
// batch of k mixed-class queries over n sites costs exactly n request
// frames and n response frames — independent of k. Answers must match the
// centralized oracle for every query.
func TestBatchOneFramePerSite(t *testing.T) {
	labels := []string{"A", "B", "C"}
	g := gen.PowerLaw(gen.Config{Nodes: 200, Edges: 800, Labels: labels, Seed: 81})
	const nSites = 4
	co, done := deploy(t, g, nSites, 81)
	defer done()
	type input struct {
		qs   []BatchQuery
		want []bool
	}
	var inputs []input
	for _, k := range []int{1, 5, 17, 48} {
		qs, want := batchWorkload(g, labels, k, 82+uint64(k))
		inputs = append(inputs, input{qs, want})
	}
	// A batch of one of each class (the workload cycles qr, qbr, qrr), and
	// a mixed-class pair: the same frame, the same bound.
	last := inputs[len(inputs)-1]
	for _, r := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 3}} {
		inputs = append(inputs, input{last.qs[r[0]:r[1]], last.want[r[0]:r[1]]})
	}
	for _, in := range inputs {
		qs, want, k := in.qs, in.want, len(in.qs)
		answers, st, err := co.Batch(qs)
		if err != nil {
			t.Fatal(err)
		}
		// An all-reach batch proved true early cancels its stragglers:
		// fewer finals, never more than one per site.
		if st.FramesSent != nSites || st.FramesReceived > nSites || (st.FramesReceived < nSites && !st.EarlyTerminated) {
			t.Fatalf("batch of %d: %d frames sent, %d received (early=%v); want %d each (one per site)",
				k, st.FramesSent, st.FramesReceived, st.EarlyTerminated, nSites)
		}
		if st.BytesSent == 0 || st.BytesReceived == 0 {
			t.Fatalf("batch of %d: no wire traffic recorded: %+v", k, st)
		}
		for i, a := range answers {
			if a.Answer != want[i] {
				t.Fatalf("batch of %d, query %d (class %q %d->%d): wire=%v oracle=%v",
					k, i, byte(qs[i].Class), qs[i].S, qs[i].T, a.Answer, want[i])
			}
		}
	}

	// One rows section per batch: a site that has to ship its boundary rows
	// ships them once, whatever the batch asks — 32 reach queries with 32
	// distinct targets cost a cold coordinator about what one query does,
	// and a warm one a query part each.
	const fan = 32
	co.SetAnytime(false) // every final, so bytes compare
	dropRows(co)
	single, st1, err := co.Batch([]BatchQuery{{Class: ClassReach, S: 0, T: 199}})
	if err != nil {
		t.Fatal(err)
	}
	if st1.RowsReplies != nSites {
		t.Fatalf("cold query: %d sites shipped rows, want all %d", st1.RowsReplies, nSites)
	}
	many := make([]BatchQuery, fan)
	for i := range many {
		many[i] = BatchQuery{Class: ClassReach, S: graph.NodeID(i), T: graph.NodeID(199 - i)}
	}
	dropRows(co)
	answers, stn, err := co.Batch(many)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if want := g.Reachable(many[i].S, many[i].T); a.Answer != want {
			t.Fatalf("fanned batch query %d: wire=%v oracle=%v", i, a.Answer, want)
		}
	}
	if single[0].Answer != answers[0].Answer {
		t.Fatal("single and fanned batch disagree on qr(0,199)")
	}
	if stn.RowsReplies != nSites {
		t.Fatalf("cold batch of %d targets: %d rows sections, want one per site (%d)", fan, stn.RowsReplies, nSites)
	}
	if stn.BytesReceived >= 2*st1.BytesReceived {
		t.Fatalf("%d distinct targets cost %dB cold, a single query %dB: the rows must ship once per site, not per target",
			fan, stn.BytesReceived, st1.BytesReceived)
	}
	_, warm, err := co.Batch(many)
	if err != nil {
		t.Fatal(err)
	}
	if warm.RowsReplies != 0 || warm.BytesReceived >= stn.BytesReceived/2 {
		t.Fatalf("warm batch: %d rows sections, %dB (cold %dB); want query parts only", warm.RowsReplies, warm.BytesReceived, stn.BytesReceived)
	}
}

// dropRows empties the coordinator's boundary cache: its next request to
// every site carries the zero tag, as a freshly dialed coordinator's would.
func dropRows(co *Coordinator) {
	for i := range co.rows {
		co.rows[i].Store(nil)
	}
}

// TestBatchMatchesSingleQueryAPI runs the same queries through Batch and
// through the single-query methods: answers and distances must agree.
func TestBatchMatchesSingleQueryAPI(t *testing.T) {
	labels := []string{"A", "B"}
	g := gen.Uniform(gen.Config{Nodes: 120, Edges: 500, Labels: labels, Seed: 83})
	co, done := deploy(t, g, 3, 83)
	defer done()
	qs, _ := batchWorkload(g, labels, 24, 84)
	answers, _, err := co.Batch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		switch q.Class {
		case ClassReach:
			single, _, err := co.Reach(q.S, q.T)
			if err != nil {
				t.Fatal(err)
			}
			if answers[i].Answer != single {
				t.Fatalf("query %d: batch=%v single=%v", i, answers[i].Answer, single)
			}
		case ClassDist:
			single, dist, _, err := co.ReachWithin(q.S, q.T, q.L)
			if err != nil {
				t.Fatal(err)
			}
			if answers[i].Answer != single || answers[i].Dist != dist {
				t.Fatalf("query %d: batch=(%v,%d) single=(%v,%d)",
					i, answers[i].Answer, answers[i].Dist, single, dist)
			}
		case ClassRPQ:
			single, _, err := co.ReachRegex(q.S, q.T, q.A)
			if err != nil {
				t.Fatal(err)
			}
			if answers[i].Answer != single {
				t.Fatalf("query %d: batch=%v single=%v", i, answers[i].Answer, single)
			}
		}
	}
}

// TestBatchShortCircuits checks the local fast paths: s==t and degenerate
// bounds answer without any frames, and an all-local batch sends nothing.
func TestBatchShortCircuits(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 160, Labels: []string{"A"}, Seed: 85})
	co, done := deploy(t, g, 2, 85)
	defer done()
	qs := []BatchQuery{
		{Class: ClassReach, S: 7, T: 7},
		{Class: ClassDist, S: 3, T: 3, L: 5},
		{Class: ClassDist, S: 1, T: 2, L: 0},
	}
	answers, st, err := co.Batch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesSent != 0 || st.BytesSent != 0 {
		t.Fatalf("all-local batch touched the wire: %+v", st)
	}
	if !answers[0].Answer || !answers[1].Answer || answers[1].Dist != 0 {
		t.Fatalf("s==t short circuits wrong: %+v", answers[:2])
	}
	if answers[2].Answer || answers[2].Dist != bes.Inf {
		t.Fatalf("l<=0 short circuit wrong: %+v", answers[2])
	}
	// A mix of local and wire queries still costs one frame per site.
	qs = append(qs, BatchQuery{Class: ClassReach, S: 0, T: 39})
	if _, st, err = co.Batch(qs); err != nil {
		t.Fatal(err)
	}
	if st.FramesSent != 2 {
		t.Fatalf("mixed batch sent %d frames, want 2 (one per site)", st.FramesSent)
	}
	// Empty batches are legal and free.
	if answers, st, err = co.Batch(nil); err != nil || len(answers) != 0 || st.FramesSent != 0 {
		t.Fatalf("empty batch: answers=%v st=%+v err=%v", answers, st, err)
	}
}

// TestBatchCodecRejectsHostilePayloads exercises the decoder guards the
// fuzzers also probe: corrupt counts, truncations, and trailing bytes must
// come back as errors, never panics or giant allocations.
func TestBatchCodecRejectsHostilePayloads(t *testing.T) {
	valid, err := encodeBatchRequest([]BatchQuery{{Class: ClassReach, S: 1, T: 2}}, batchHeader{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := encodeBatchRequest(nil, batchHeader{traced: true, traceID: 7, span: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"empty":             {},
		"bad version":       {9, 0, 1, 0, 0, 0},
		"previous version":  {batchVersion - 1, 0, 0, 0, 0, 0},
		"unknown flags":     append([]byte{batchVersion, 0xF0}, valid[2:]...),
		"truncated tag":     valid[:tagOffset+9],
		"huge count":        append(append([]byte{}, valid[:tagOffset+rowsTagSize]...), 0xFF, 0xFF, 0xFF, 0xFF),
		"truncated query":   valid[:len(valid)-2],
		"trailing bytes":    append(append([]byte{}, valid...), 0xAA),
		"unknown class":     append(append([]byte{}, valid[:tagOffset+rowsTagSize]...), 1, 0, 0, 0, 'z', 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated context": traced[:spanOffset+3],
		"context, no count": traced[:spanOffset+8],
	} {
		if _, _, err := decodeBatchRequest(p); err == nil {
			t.Errorf("decodeBatchRequest accepted %s payload", name)
		}
	}
	full := batchReply{hasRows: true, tag: rowsTag{7, 3}, rows: []byte{9, 9}, parts: [][]byte{{1, 2, 3}, nil}}
	reply := encodeBatchReply(nil, full)
	for name, p := range map[string][]byte{
		"bad version":      {7, 0, 0, 0, 0, 0},
		"previous version": {batchVersion - 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad rows flag":    {batchVersion, 2, 0, 0, 0, 0},
		"truncated tag":    reply[:2+11],
		"huge rows length": append(append([]byte{}, reply[:2+rowsTagSize]...), 0xFF, 0xFF, 0xFF, 0x7F),
		"huge query count": {batchVersion, 0, 0xFF, 0xFF, 0xFF, 0x7F},
		"truncated part":   encodeBatchReply(nil, batchReply{parts: [][]byte{{1, 2, 3}}})[:8],
		"trailing bytes":   append(append([]byte{}, reply...), 1),
	} {
		if _, err := decodeBatchReply(p); err == nil {
			t.Errorf("decodeBatchReply accepted %s payload", name)
		}
	}
	// Round trips survive intact, including empty batches and empty parts.
	qs := []BatchQuery{{Class: ClassDist, S: 5, T: 9, L: 3}, {Class: ClassReach, S: 0, T: 1}}
	hdr := batchHeader{traced: true, rows: rowsTag{0xABCD, 17}, traceID: 0xDEADBEEF, span: 2}
	enc, err := encodeBatchRequest(qs, hdr)
	if err != nil {
		t.Fatal(err)
	}
	dec, got, err := decodeBatchRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Fatalf("request round trip header: %+v", got)
	}
	if len(dec) != 2 || dec[0] != qs[0] || dec[1] != qs[1] {
		t.Fatalf("request round trip: %+v", dec)
	}
	for _, want := range []batchReply{full, {parts: [][]byte{nil, {7}}}, {hasRows: true, tag: rowsTag{1, 0}}} {
		got, err := decodeBatchReply(encodeBatchReply(nil, want))
		if err != nil || got.hasRows != want.hasRows || got.tag != want.tag || !bytes.Equal(got.rows, want.rows) ||
			len(got.parts) != len(want.parts) {
			t.Fatalf("reply round trip: %+v -> %+v, %v", want, got, err)
		}
		for i := range want.parts {
			if !bytes.Equal(got.parts[i], want.parts[i]) {
				t.Fatalf("reply round trip: part %d %v -> %v", i, want.parts[i], got.parts[i])
			}
		}
	}
}

// countGoroutines polls until the count settles at or below want, tolerating
// runtime bookkeeping goroutines that exit asynchronously.
func countGoroutines(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestBatchLifecycleNoLeak drives concurrent batches while a site drops
// and while the coordinator closes: every pending batch must fail promptly
// and no goroutine may leak once everything is shut down.
func TestBatchLifecycleNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 240, Labels: []string{"A"}, Seed: 87})
	fr, err := fragment.Random(g, 3, 87)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentationOpts(fr, SiteOptions{Delay: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	mkBatch := func(seed uint64) []BatchQuery {
		qs, _ := batchWorkload(g, []string{"A"}, 6, seed)
		return qs
	}

	// Phase 1: batches in flight while a site drops — all must error.
	const inflight = 5
	errc := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(seed uint64) {
			_, _, err := co.Batch(mkBatch(seed))
			errc <- err
		}(uint64(90 + i))
	}
	time.Sleep(50 * time.Millisecond) // let the frames reach the sites
	sites[2].Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("batch served by a dropped site must fail, not answer")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight batch hung after its site dropped")
		}
	}

	// Phase 2: fresh coordinator on the survivors, batches in flight while
	// Close is called — all must error promptly, none may hang.
	co2, err := Dial(addrs[:2], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc2 := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			_, _, err := co2.Batch(mkBatch(seed))
			errc2 <- err
		}(uint64(110 + i))
	}
	time.Sleep(50 * time.Millisecond)
	co2.Close()
	wg.Wait()
	close(errc2)
	for err := range errc2 {
		if err == nil {
			t.Fatal("batch in flight across Coordinator.Close must fail")
		}
	}

	// Teardown: everything closed, goroutine count back to the baseline.
	co.Close()
	for _, s := range sites {
		s.Close()
	}
	if n := countGoroutines(t, before); n > before {
		t.Fatalf("goroutine leak: %d before, %d after shutdown", before, n)
	}
}
