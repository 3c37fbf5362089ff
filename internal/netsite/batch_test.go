package netsite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/codec"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/rx"
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

// framesProbe watches which sites a coordinator's rounds post to, through
// its auditor's per-site post counts, and the order the posts went out in,
// through its traces.
type framesProbe struct {
	t      *testing.T
	co     *Coordinator
	aud    *obs.Auditor
	k      int
	mu     sync.Mutex
	traces []*obs.Trace
}

func newFramesProbe(t *testing.T, co *Coordinator) *framesProbe {
	p := &framesProbe{t: t, co: co, aud: obs.NewAuditor(), k: co.NumSites()}
	co.SetAuditor(p.aud)
	co.SetTraceSink(func(tr *obs.Trace) {
		p.mu.Lock()
		p.traces = append(p.traces, tr)
		p.mu.Unlock()
	})
	return p
}

// round runs one strict batch and checks that it posted exactly one frame
// to each site of want and none to the others; then, when second is
// non-nil, that exactly its sites were posted after a reply had arrived.
// It returns the answers and the round's stats.
func (p *framesProbe) round(step string, qs []BatchQuery, want, second []bool) ([]BatchAnswer, WireStats) {
	p.t.Helper()
	before := make([]int64, p.k)
	for i := range before {
		before[i] = p.aud.Posts(i)
	}
	answers, st, err := p.co.Batch(qs)
	if err != nil {
		p.t.Fatalf("%s: %v", step, err)
	}
	var n int64
	for i := 0; i < p.k; i++ {
		got := p.aud.Posts(i) > before[i]
		if got != want[i] {
			p.t.Fatalf("%s: site %d posted: %v, want %v (want set %v)", step, i, got, want[i], siteList(want))
		}
		if got {
			n++
		}
	}
	if st.FramesSent != n || st.FramesReceived != n {
		p.t.Fatalf("%s: %d frames sent, %d received, want one to and from each of %v", step, st.FramesSent, st.FramesReceived, siteList(want))
	}
	if v := p.aud.Summary().VisitViolations; v != 0 {
		p.t.Fatalf("%s: %d sites posted twice in one attempt", step, v)
	}
	if second != nil {
		p.mu.Lock()
		tr := p.traces[len(p.traces)-1]
		p.mu.Unlock()
		if tr.ID != st.TraceID {
			p.t.Fatalf("%s: trace %x is not the round's (%x)", step, tr.ID, st.TraceID)
		}
		// An rpc span started after another one ended was posted on a
		// reply's word.
		firstEnd := time.Time{}
		for _, sp := range tr.Spans {
			if end := sp.Start.Add(sp.Dur); sp.Name == "rpc" && (firstEnd.IsZero() || end.Before(firstEnd)) {
				firstEnd = end
			}
		}
		late := make([]bool, p.k)
		for _, sp := range tr.Spans {
			if sp.Name != "rpc" || sp.Start.Before(firstEnd) {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "site" {
					i, _ := strconv.Atoi(a.Val)
					late[i] = true
				}
			}
		}
		if !slices.Equal(late, second) {
			p.t.Fatalf("%s: sites posted on a reply's word %v, want %v", step, siteList(late), siteList(second))
		}
	}
	return answers, st
}

// TestBatchFramesPerExpectedSite pins the routing of every query round on
// a small deployment whose sites share one replica: over every (s, t), a
// round sends exactly one frame to each site it has to hear from and none
// to the others —
//   - a cold round, or one naming a node for the first time: every site;
//   - a warm reach or distance round: owner(s) ∪ owner(t), over the batch;
//   - any round with a regex query: every site;
//   - after an update acknowledged through this coordinator: owner(s) ∪
//     owner(t) ∪ its dirty set, all up front;
//   - after an unsequenced lsn-0 apply the coordinator never saw: owner(s)
//     ∪ owner(t) first, then exactly the dirtied sites the first reply
//     names stale.
//
// Batches cost one frame per posted site whatever their size, every answer
// matches the centralized oracle, and a site whose rows must ship ships
// them once per batch.
func TestBatchFramesPerExpectedSite(t *testing.T) {
	labels := []string{"A", "B", "C"}
	g := gen.PowerLaw(gen.Config{Nodes: 40, Edges: 120, Labels: labels, Seed: 81})
	const k = 4
	fr, err := fragment.Random(g, k, 81)
	if err != nil {
		t.Fatal(err)
	}
	rep := fragment.NewReplica(fr)
	sites, addrs, err := ServeReplica(rep, SiteOptions{})
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
	co.SetAnytime(false) // every posted site's reply, so frames compare
	p := newFramesProbe(t, co)
	every := []bool{true, true, true, true}
	seen := make(map[graph.NodeID]bool) // nodes some round has named
	owners := func(qs []BatchQuery, extra ...int) []bool {
		want := make([]bool, k)
		for _, q := range qs {
			if !seen[q.S] || !seen[q.T] || q.Class == ClassRPQ {
				return every
			}
			want[fr.Owner(q.S)], want[fr.Owner(q.T)] = true, true
		}
		for _, i := range extra {
			want[i] = true
		}
		return want
	}
	check := func(step string, qs []BatchQuery, answers []BatchAnswer) {
		for j, q := range qs {
			var want bool
			switch q.Class {
			case ClassReach:
				want = g.Reachable(q.S, q.T)
			case ClassDist:
				d := g.Dist(q.S, q.T)
				want = d >= 0 && d <= q.L
			case ClassRPQ:
				want = automaton.Eval(g, q.S, q.T, q.A)
			}
			if answers[j].Answer != want {
				t.Fatalf("%s: query %d (class %q %d->%d) = %v, oracle %v", step, j, byte(q.Class), q.S, q.T, answers[j].Answer, want)
			}
			seen[q.S], seen[q.T] = true, true
		}
	}
	n := graph.NodeID(g.NumNodes())
	pair := func(s, tt graph.NodeID) []BatchQuery {
		q := BatchQuery{Class: ClassReach, S: s, T: tt}
		if (s+tt)%2 == 1 {
			q.Class, q.L = ClassDist, 1+int(s+tt)%4
		}
		return []BatchQuery{q}
	}

	// Every (s, t): the first rounds name new nodes and post to every
	// site; once both nodes are known, only their owners are posted.
	var rounds, frames int64
	for s := graph.NodeID(0); s < n; s++ {
		for tt := graph.NodeID(0); tt < n; tt++ {
			if s == tt {
				continue
			}
			qs := pair(s, tt)
			step := fmt.Sprintf("qr/qbr(%d,%d)", s, tt)
			answers, st := p.round(step, qs, owners(qs), nil)
			if st.RowsReplies != 0 && (s != 0 || tt != 1) {
				t.Fatalf("%s: %d sites shipped rows on a warm round", step, st.RowsReplies)
			}
			check(step, qs, answers)
			rounds, frames = rounds+1, frames+st.FramesSent
		}
	}
	if 2*frames >= int64(k)*rounds {
		t.Fatalf("%d frames over %d rounds: warm rounds must post to the owners only", frames, rounds)
	}
	t.Logf("every (s, t): %.2f frames sent per round over %d rounds, %d sites", float64(frames)/float64(rounds), rounds, k)

	// Batches: one frame per posted site whatever the size; a regex query
	// posts to every site.
	for _, size := range []int{1, 5, 17, 48} {
		qs, _ := batchWorkload(g, labels, size, 82+uint64(size))
		answers, _ := p.round(fmt.Sprintf("mixed batch of %d", size), qs, owners(qs), nil)
		check("mixed batch", qs, answers)
		var rowsQs []BatchQuery
		for _, q := range qs {
			if q.Class != ClassRPQ && q.S != q.T {
				rowsQs = append(rowsQs, q)
			}
		}
		answers, _ = p.round(fmt.Sprintf("reach and distance batch of %d", len(rowsQs)), rowsQs, owners(rowsQs), nil)
		check("reach and distance batch", rowsQs, answers)
	}

	rng := gen.NewRNG(83)
	draw := func() []BatchQuery {
		for {
			if s, tt := graph.NodeID(rng.Intn(int(n))), graph.NodeID(rng.Intn(int(n))); s != tt {
				return pair(s, tt)
			}
		}
	}
	for i := 0; i < 12; i++ {
		// An update acknowledged through the coordinator: its dirty sites
		// are posted up front, and ship their rows.
		u, v := graph.NodeID(rng.Intn(int(n))), graph.NodeID(rng.Intn(int(n)))
		res, _, err := co.Update(UpdateInsert, u, v)
		if err != nil {
			t.Fatal(err)
		}
		qs := draw()
		step := fmt.Sprintf("update %d (dirty %v) then %v", i, res.Dirty, qs[0])
		answers, st := p.round(step, qs, owners(qs, res.Dirty...), make([]bool, k))
		if st.RowsReplies != int64(len(res.Dirty)) {
			t.Fatalf("%s: %d sites shipped rows, want the %d dirty ones", step, st.RowsReplies, len(res.Dirty))
		}
		check(step, qs, answers)

		// An lsn-0 apply under the sites: the owners are posted first and
		// the first reply names the dirtied sites, which are posted next.
		u, v = graph.NodeID(rng.Intn(int(n))), graph.NodeID(rng.Intn(int(n)))
		ares, _, err := rep.ApplyLSN(0, 0, []Op{{Kind: OpDeleteEdge, U: u, V: v}, {Kind: OpInsertEdge, U: v, V: u}})
		if err != nil {
			t.Fatal(err)
		}
		qs = draw()
		step = fmt.Sprintf("lsn 0 apply %d (dirty %v) then %v", i, ares.Dirty, qs[0])
		first := owners(qs)
		second := make([]bool, k)
		for _, d := range ares.Dirty {
			second[d] = !first[d]
		}
		answers, st = p.round(step, qs, owners(qs, ares.Dirty...), second)
		if st.RowsReplies != int64(len(ares.Dirty)) {
			t.Fatalf("%s: %d sites shipped rows, want the %d dirtied ones", step, st.RowsReplies, len(ares.Dirty))
		}
		check(step, qs, answers)
	}
	if n := co.pendingTotal(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
	co.SetTraceSink(nil)
	co.SetAuditor(nil)

	// One rows section per batch: a site that has to ship its boundary rows
	// ships them once, whatever the batch asks — 32 reach queries with 32
	// distinct targets cost a cold coordinator about what one query does,
	// and a warm one a query part each.
	g = gen.PowerLaw(gen.Config{Nodes: 200, Edges: 800, Labels: labels, Seed: 81})
	const nSites = 4
	co, done := deploy(t, g, nSites, 81)
	defer done()
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

	// A batch of regex queries only reads node owners off the rows: a
	// coordinator that holds none gets none, while a batch that also asks
	// a reach query gets every site's.
	rq := []BatchQuery{{Class: ClassRPQ, S: 0, T: 199, A: automaton.Random(gen.NewRNG(81), 3, 6, labels)}}
	dropRows(co)
	ra, rst, err := co.Batch(rq)
	if err != nil {
		t.Fatal(err)
	}
	if want := automaton.Eval(g, 0, 199, rq[0].A); ra[0].Answer != want || rst.RowsReplies != 0 {
		t.Fatalf("cold regex batch: answer %v (oracle %v), %d rows sections; want none", ra[0].Answer, want, rst.RowsReplies)
	}
	if _, mst, err := co.Batch(append(rq, many[0])); err != nil || mst.RowsReplies != nSites {
		t.Fatalf("cold mixed batch: %d rows sections, %v; want one per site (%d)", mst.RowsReplies, err, nSites)
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

// TestBatchSharesTargetEquations: the in-nodes that reach a target are
// the same for every source, so a site ships them with the first query of
// a batch that names the target and not again. A warm batch of m reach
// queries to one target therefore carries that target's equations once
// per posted site, where m single queries carry them m times: the batch's
// reply bytes stay below the m singles' less m-1 copies of the equations.
func TestBatchSharesTargetEquations(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 400, Edges: 1600, Labels: []string{"A"}, Seed: 85})
	fr, err := fragment.Random(g, 3, 85)
	if err != nil {
		t.Fatal(err)
	}
	// The target with the most in-nodes reaching it at its site.
	var tt graph.NodeID
	var most []byte
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		part := core.TargetOnlyReach(fr.Fragments()[fr.Owner(v)], v, nil)
		if part.NumEqs() > 0 {
			if b, err := part.MarshalBinary(); err != nil {
				t.Fatal(err)
			} else if len(b) > len(most) {
				tt, most = v, b
			}
		}
	}
	if len(most) < 64 {
		t.Fatalf("the largest target part is %d bytes: too small to tell", len(most))
	}
	const m = 12
	rng := gen.NewRNG(86)
	var qs []BatchQuery
	for len(qs) < m {
		if s := graph.NodeID(rng.Intn(g.NumNodes())); s != tt {
			qs = append(qs, BatchQuery{Class: ClassReach, S: s, T: tt})
		}
	}
	co, done := deployFr(t, fr)
	defer done()
	co.SetAnytime(false) // every posted site replies
	batch := func() ([]BatchAnswer, WireStats) {
		answers, st, err := co.Batch(qs)
		if err != nil {
			t.Fatal(err)
		}
		return answers, st
	}
	batch() // cold: every site ships its rows and names the owners
	var singles int64
	for _, q := range qs {
		_, st, err := co.Reach(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		if st.RowsReplies != 0 {
			t.Fatalf("single reach(%d,%d) was not warm: %d rows replies", q.S, q.T, st.RowsReplies)
		}
		singles += st.BytesReceived
	}
	answers, st := batch()
	if st.RowsReplies != 0 {
		t.Fatalf("the batch was not warm: %d rows replies", st.RowsReplies)
	}
	for i, q := range qs {
		if want := g.Reachable(q.S, q.T); answers[i].Answer != want {
			t.Fatalf("reach(%d,%d) = %v, want %v", q.S, q.T, answers[i].Answer, want)
		}
	}
	if limit := singles - (m-1)*int64(len(most)); st.BytesReceived >= limit {
		t.Fatalf("a warm batch of %d queries to one target received %d bytes; %d singles received %d, so at most %d with the %d-byte target part shipped once",
			m, st.BytesReceived, m, singles, limit, len(most))
	}
	t.Logf("%d queries to one target: batch %d bytes, singles %d bytes, target part %d bytes", m, st.BytesReceived, singles, len(most))
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
	if answers[2].Answer || answers[2].Dist != core.Inf {
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

// encodeBatchRequest packs a whole query request as a round sends it to one
// site: its head, the shared section and the skip section.
func encodeBatchRequest(qs []BatchQuery, h batchHeader) ([]byte, error) {
	b, err := appendQueries(appendBatchHead(nil, h), qs)
	if err != nil {
		return nil, err
	}
	return appendSkip(b, h.skip), nil
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
	const head = 1 + 8 + 1 // flags, instance, generation+1 (no rows held)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, p := range map[string][]byte{
		"empty":               {},
		"version-9 layout":    cat([]byte{9}, valid), // the retired leading version byte
		"unknown flags":       cat([]byte{0xF0}, valid[1:]),
		"truncated instance":  valid[:1+7],
		"padded generation":   cat(valid[:head-1], []byte{0x80, 0}, valid[head:]),
		"huge count":          cat(valid[:head], []byte{0xFF, 0xFF, 0xFF, 0x7F}),
		"padded count":        cat(valid[:head], []byte{0x81, 0}, valid[head+1:]),
		"truncated query":     valid[:len(valid)-2],
		"trailing bytes":      cat(valid, []byte{0xAA}),
		"unknown class":       cat(valid[:head], []byte{1, 'z', 0, 0}),
		"node above i32":      cat(valid[:head], []byte{1, 'r'}, binary.AppendUvarint(nil, 1<<31), []byte{0}),
		"bound above u32":     cat(valid[:head], []byte{1, 'b', 0, 1}, binary.AppendUvarint(nil, 1<<32)),
		"truncated context":   traced[:head+3],
		"context, no count":   traced[:head+8+1],
		"padded parent span":  cat(traced[:head+8], []byte{0x83, 0}, traced[head+9:]),
		"truncated node":      cat(valid[:head], []byte{1, 'r', 0x80}),
		"truncated automaton": cat(valid[:head], []byte{1, 'q', 0, 1, 9, 1}),
	} {
		if _, _, err := decodeBatchRequest(p); err == nil {
			t.Errorf("decodeBatchRequest accepted %s payload", name)
		}
	}
	full := batchReply{rowsKind: rowsFull, tag: rowsTag{7, 3}, rows: []byte{9, 9}, stale: []int{2}, owners: []int{0, -1, 3, 1}, parts: [][]byte{{1, 2, 3}, nil}}
	reply := encodeBatchReply(nil, full)
	onePart := encodeBatchReply(nil, batchReply{parts: [][]byte{{1, 2, 3}}})
	delta := batchReply{rowsKind: rowsDelta, tag: rowsTag{gen: 4}, rows: []byte{1, 0}, dropped: []graph.NodeID{3, 8}, parts: [][]byte{nil}}
	deltaReply := encodeBatchReply(nil, delta)
	for name, p := range map[string][]byte{
		"bad rows flag":          {3, 0, 0, 0},
		"truncated dropped head": deltaReply[:1+1+3+1+1],
		"huge drop count":        cat(deltaReply[:1+1+3], []byte{0xFF, 0xFF, 0xFF, 0x7F}),
		"padded drop count":      cat(deltaReply[:1+1+3], []byte{0x82, 0}, deltaReply[1+1+3+1:]),
		"version-9 layout":       cat([]byte{9}, reply), // the retired leading version byte
		"truncated tag":          reply[:1+7],
		"huge rows length":       cat(reply[:1+8+1], []byte{0xFF, 0xFF, 0xFF, 0x7F}),
		"huge query count":       {0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F},
		"truncated part":         onePart[:len(onePart)-2],
		"padded part count":      {0, 0, 0, 0x80, 0},
		"trailing bytes":         cat(reply, []byte{1}),
	} {
		if _, err := decodeBatchReply(p); err == nil {
			t.Errorf("decodeBatchReply accepted %s payload", name)
		}
	}
	// Round trips survive intact, including empty batches and empty parts.
	qs := []BatchQuery{{Class: ClassDist, S: 5, T: 9, L: 3}, {Class: ClassReach, S: 0, T: 1}}
	hdr := batchHeader{traced: true, instance: 0xABCD, held: true, gen: 17, traceID: 0xDEADBEEF, span: 2,
		skip: skipList{sites: []int{1, 3}, gens: []uint64{0, 300}}}
	enc, err := encodeBatchRequest(qs, hdr)
	if err != nil {
		t.Fatal(err)
	}
	dec, got, err := decodeBatchRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hdr) {
		t.Fatalf("request round trip header: %+v", got)
	}
	// The skip section: at least one site, strictly ascending, whole.
	plain, err := encodeBatchRequest(qs, batchHeader{})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"empty skip section":  binary.AppendUvarint(append([]byte{}, plain...), 0),
		"skip sites reversed": appendSkip(append([]byte{}, plain...), skipList{sites: []int{3, 1}, gens: []uint64{0, 0}}),
		"skip sites repeated": appendSkip(append([]byte{}, plain...), skipList{sites: []int{2, 2}, gens: []uint64{0, 0}}),
		"truncated skip":      enc[:len(enc)-1],
		"huge skip site":      appendSkip(append([]byte{}, plain...), skipList{sites: []int{1 << 20}, gens: []uint64{0}}),
	} {
		if _, _, err := decodeBatchRequest(p); err == nil {
			t.Errorf("decodeBatchRequest accepted %s payload", name)
		}
	}
	if len(dec) != 2 || dec[0] != qs[0] || dec[1] != qs[1] {
		t.Fatalf("request round trip: %+v", dec)
	}
	for _, want := range []batchReply{full, {parts: [][]byte{nil, {7}}}, {rowsKind: rowsFull, tag: rowsTag{1, 0}}, delta} {
		got, err := decodeBatchReply(encodeBatchReply(nil, want))
		if err != nil || got.rowsKind != want.rowsKind || got.tag != want.tag || !bytes.Equal(got.rows, want.rows) ||
			!slices.Equal(got.dropped, want.dropped) ||
			!slices.Equal(got.stale, want.stale) || !slices.Equal(got.owners, want.owners) || len(got.parts) != len(want.parts) {
			t.Fatalf("reply round trip: %+v -> %+v, %v", want, got, err)
		}
		for i := range want.parts {
			if !bytes.Equal(got.parts[i], want.parts[i]) {
				t.Fatalf("reply round trip: part %d %v -> %v", i, want.parts[i], got.parts[i])
			}
		}
	}

	// A rows delta that cannot have been taken against the copy the
	// request named fails the reply with an error, never a wrong copy.
	base := &siteRows{tag: rowsTag{7, 3}, rv: new(core.Rows)}
	if err := base.rv.UnmarshalBinary(rowsWithHeads(2, 4, 6)); err != nil {
		t.Fatal(err)
	}
	feed := func(held *siteRows, rep batchReply) (*siteRows, error) {
		co := &Coordinator{rows: make([]atomic.Pointer[siteRows], 1)}
		sol := newBatchSolver(co, []BatchQuery{{Class: ClassReach, S: 1, T: 2}}, false)
		sol.reset()
		sol.held[0] = held
		rep.parts = [][]byte{nil}
		if err := sol.feed(0, rep); err != nil {
			return nil, err
		}
		return sol.held[0], nil
	}
	deltaOf := func(gen uint64, heads []graph.NodeID, dropped ...graph.NodeID) batchReply {
		return batchReply{rowsKind: rowsDelta, tag: rowsTag{gen: gen}, rows: rowsWithHeads(heads...), dropped: dropped}
	}
	for name, c := range map[string]struct {
		held *siteRows
		rep  batchReply
	}{
		"delta to a request that named no rows": {nil, deltaOf(4, []graph.NodeID{5})},
		"delta to the held generation":          {base, deltaOf(3, []graph.NodeID{5})},
		"delta to an older generation":          {base, deltaOf(2, []graph.NodeID{5})},
		"changed heads descending":              {base, deltaOf(4, []graph.NodeID{5, 3})},
		"dropped heads descending":              {base, deltaOf(4, nil, 6, 2)},
		"dropped head the base does not hold":   {base, deltaOf(4, nil, 5)},
		"head both changed and dropped":         {base, deltaOf(4, []graph.NodeID{4}, 4)},
	} {
		if got, err := feed(c.held, c.rep); err == nil {
			t.Errorf("%s: patched into %d equations at %v, want an error", name, got.rv.NumEqs(), got.tag)
		}
	}
	// A regex query's part is product rows the walk can search: one it
	// cannot fails the reply, whatever rows the site shipped with it.
	feedRPQ := func(part []byte) error {
		co := &Coordinator{rows: make([]atomic.Pointer[siteRows], 1)}
		sol := newBatchSolver(co, []BatchQuery{{Class: ClassRPQ, S: 1, T: 2, A: automaton.FromRegex(rx.MustParse("A*"))}}, false)
		sol.reset()
		sol.held[0] = base
		return sol.feed(0, batchReply{parts: [][]byte{part}})
	}
	for name, part := range map[string][]byte{
		"zero term gap":           {0, 1, 10, 1, 2, 5, 0},
		"descending head":         {0, 2, 10, 0, 0, 3, 0, 0},
		"product key of 2^31":     {0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 0},
		"retired RPQPartial part": {12, 1, 10, 1, 5, 1, 17}, // variable space 12, one entry of node 5
	} {
		if err := feedRPQ(part); err == nil {
			t.Errorf("a regex part with a %s was accepted", name)
		}
	}
	if err := feedRPQ([]byte{0, 2, 10, 1, 0, 2, 0, 1, 9}); err != nil { // X(5) = true, X(6) = X(9)
		t.Errorf("well-formed regex part refused: %v", err)
	}
	patched, err := feed(base, deltaOf(4, []graph.NodeID{1, 5}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := rowsWithHeads(1, 2, 5, 6); patched.tag != (rowsTag{7, 4}) || !bytes.Equal(must(patched.rv.MarshalBinary()), want) {
		t.Fatalf("well-formed delta: patched into %v at %v, want %v at {7 4}", must(patched.rv.MarshalBinary()), patched.tag, want)
	}
}

// rowsWithHeads encodes a weighted core.Rows list of one empty equation
// per head, in the order given.
func rowsWithHeads(heads ...graph.NodeID) []byte {
	b := []byte{1, byte(len(heads))} // weighted; len(heads) < 128
	var prev int64
	for _, h := range heads {
		b = codec.AppendNode(b, int32(h), &prev)
		b = append(b, 0, 0) // no constant, no terms
	}
	return b
}

// must returns v, panicking on a non-nil error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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
	sites, addrs, err := ServeReplica(fragment.NewReplica(fr), SiteOptions{Delay: 300 * time.Millisecond})
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

// TestRegexKeysRefusedBeforePosting: a qrr query whose own nodes already
// put its product keys past 2^31 fails before any frame is posted (the
// coordinator here has no sites to post to), and a site that receives one
// anyway answers it with an error frame and goes on serving.
func TestRegexKeysRefusedBeforePosting(t *testing.T) {
	a := automaton.FromRegex(rx.MustParse("A")) // Start, Final and one position: 3 states
	co := &Coordinator{}
	if _, st, err := co.Batch([]BatchQuery{{Class: ClassRPQ, S: 1 << 30, T: 0, A: a}}); err == nil || st.FramesSent != 0 {
		t.Fatalf("qrr from node 2^30 over %d states: err %v after %d frames, want an error before any", a.NumStates(), err, st.FramesSent)
	}

	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 20, Labels: []string{"A"}, Seed: 48})
	fr, err := fragment.Random(g, 2, 48)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeReplica(fragment.NewReplica(fr), SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	raw, r := dialRaw(t, addrs[0])
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second))
	for i, q := range []BatchQuery{{Class: ClassRPQ, S: 1 << 30, T: 0, A: a}, {Class: ClassRPQ, S: 0, T: 9, A: a}} {
		req, err := encodeBatchRequest([]BatchQuery{q}, batchHeader{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sendFrame(raw, uint32(i+1), kindBatch, req); err != nil {
			t.Fatal(err)
		}
		want := []byte{kindError, kindAnswer}[i]
		if id, kind, _, _, err := readFrame(r); err != nil || id != uint32(i+1) || kind != want {
			t.Fatalf("qrr(%d, %d) at the site: frame id=%d kind %q, %v; want kind %q", q.S, q.T, id, kind, err, want)
		}
	}
}
