package netsite

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/rx"
)

func deploy(t *testing.T, g *graph.Graph, k int, seed uint64) (*Coordinator, func()) {
	t.Helper()
	fr, err := fragment.Random(g, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return co, func() {
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

func TestTCPReachMatchesOracle(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 300, Edges: 1200, Seed: 41})
	co, done := deploy(t, g, 4, 41)
	defer done()
	rng := gen.NewRNG(42)
	for q := 0; q < 60; q++ {
		s := graph.NodeID(rng.Intn(300))
		tt := graph.NodeID(rng.Intn(300))
		got, st, err := co.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Reachable(s, tt); got != want {
			t.Fatalf("query %d: tcp=%v oracle=%v (s=%d t=%d)", q, got, want, s, tt)
		}
		if s != tt && (st.BytesSent == 0 || st.BytesReceived == 0) {
			t.Fatalf("no wire traffic recorded: %+v", st)
		}
	}
}

func TestTCPDistMatchesOracle(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 150, Edges: 450, Seed: 43})
	co, done := deploy(t, g, 3, 43)
	defer done()
	rng := gen.NewRNG(44)
	for q := 0; q < 60; q++ {
		s := graph.NodeID(rng.Intn(150))
		tt := graph.NodeID(rng.Intn(150))
		l := rng.Intn(10)
		got, dist, _, err := co.ReachWithin(s, tt, l)
		if err != nil {
			t.Fatal(err)
		}
		d := g.Dist(s, tt)
		want := d >= 0 && d <= l
		if got != want {
			t.Fatalf("query %d: tcp=%v oracle dist=%d l=%d", q, got, d, l)
		}
		if want && dist != int64(d) {
			t.Fatalf("query %d: distance %d, oracle %d", q, dist, d)
		}
		if !want && dist != core.Inf && dist <= int64(l) {
			t.Fatalf("query %d: inconsistent distance %d", q, dist)
		}
	}
	// A bound of 2^32 or more does not fit the wire's 32 bits; it must
	// still reach as far as any path goes.
	for _, wide := range []uint64{1 << 32, 1<<32 + 1} {
		l := int(wide)
		if uint64(l) != wide {
			break // int is 32 bits wide
		}
		for s := graph.NodeID(0); s < 40; s++ {
			for tt := graph.NodeID(40); tt < 60; tt++ {
				got, dist, _, err := co.ReachWithin(s, tt, l)
				if err != nil {
					t.Fatal(err)
				}
				d := g.Dist(s, tt)
				if got != (d >= 0) || (got && dist != int64(d)) {
					t.Fatalf("qbr(%d, %d, %d) = %v at distance %d, oracle distance %d", s, tt, l, got, dist, d)
				}
			}
		}
	}
}

func TestTCPRegexMatchesOracle(t *testing.T) {
	labels := []string{"A", "B", "C"}
	g := gen.Uniform(gen.Config{Nodes: 120, Edges: 480, Labels: labels, Seed: 45})
	co, done := deploy(t, g, 5, 45)
	defer done()
	rng := gen.NewRNG(46)
	for q := 0; q < 40; q++ {
		s := graph.NodeID(rng.Intn(120))
		tt := graph.NodeID(rng.Intn(120))
		a := automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(10), labels)
		got, _, err := co.ReachRegex(s, tt, a)
		if err != nil {
			t.Fatal(err)
		}
		if want := automaton.Eval(g, s, tt, a); got != want {
			t.Fatalf("query %d: tcp=%v oracle=%v", q, got, want)
		}
	}
	// A parsed expression travels the same path.
	a := automaton.FromRegex(rx.MustParse("A (B|C)*"))
	if _, _, err := co.ReachRegex(0, 119, a); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConcurrentCoordinators(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 200, Edges: 800, Seed: 47})
	fr, err := fragment.Random(g, 3, 47)
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
	// Several coordinators sharing the sites, issuing queries concurrently.
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed uint64) {
			co, err := Dial(addrs, 2*time.Second)
			if err != nil {
				errc <- err
				return
			}
			defer co.Close()
			rng := gen.NewRNG(seed)
			for q := 0; q < 25; q++ {
				s := graph.NodeID(rng.Intn(200))
				tt := graph.NodeID(rng.Intn(200))
				got, _, err := co.Reach(s, tt)
				if err != nil {
					errc <- err
					return
				}
				if got != g.Reachable(s, tt) {
					errc <- err
					return
				}
			}
			errc <- nil
		}(uint64(w + 100))
	}
	for w := 0; w < 4; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 20, Seed: 48})
	fr, err := fragment.Random(g, 2, 48)
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
	// Hand-roll a malformed frame on a raw connection: an unknown kind must
	// come back as an error frame echoing the request ID, and the
	// connection must survive for a coordinator dialing afterwards.
	raw, r := dialRaw(t, addrs[0])
	defer raw.Close()
	if _, err := sendFrame(raw, 77, 'z', []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	id, kind, payload, _, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindError || len(payload) == 0 {
		t.Fatalf("expected error frame, got kind %q", kind)
	}
	if id != 77 {
		t.Fatalf("error frame echoes id %d, want 77", id)
	}
	co, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if got, _, err := co.Reach(0, 9); err != nil {
		t.Fatal(err)
	} else if want := g.Reachable(0, 9); got != want {
		t.Fatalf("after error frame: %v want %v", got, want)
	}
}

// TestRetiredFramesRejected posts the frame kinds the one query frame
// replaced — with the payloads that were valid for them — a query carrying
// the retired stream bit and queries of earlier batch versions to a live
// site: each must come back as an error frame echoing its ID, without a
// panic or a hang, and a batch query that follows on the same connection
// must still be answered. A peer of an earlier framing — a length u32 |
// id u32 header and no preamble — and peers of earlier varint builds — the
// "DRW2" preamble ahead of a version-9 request, or the "DRW3" preamble
// ahead of a request whose rows carry absolute term IDs — must find the
// connection closed. None of them may reach an evaluation.
func TestRetiredFramesRejected(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 20, Labels: []string{"A"}, Seed: 48})
	fr, err := fragment.Random(g, 2, 48)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sites, addrs, err := ServeReplica(fragment.NewReplica(fr), SiteOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	evals := reg.HistogramVec("site_eval_seconds", "", "kind", nil).With("query")

	// An earlier framing: its first frame is no preamble, so the site
	// closes the connection without parsing it.
	v8 := []byte{8, 0}                                       // version | flags
	v8 = append(v8, make([]byte, 16)...)                     // rows tag
	v8 = append(v8, 1, 0, 0, 0, 'r', 0, 0, 0, 0, 9, 0, 0, 0) // count u32 | class | s u32 | t u32
	frame := binary.LittleEndian.AppendUint32(nil, uint32(5+len(v8)))
	frame = append(binary.LittleEndian.AppendUint32(frame, 3), kindBatch)
	assertRefused(t, addrs[0], "an old-framing peer", append(frame, v8...))
	// Earlier varint builds: a frame behind the "DRW2" or "DRW3" preamble.
	assertRefused(t, addrs[0], "a DRW2 peer", drw2Request())
	assertRefused(t, addrs[0], "a DRW3 peer", drw3Request())

	raw, r := dialRaw(t, addrs[0])
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second)) // a hang fails the read, not the suite

	ab, err := automaton.Random(gen.NewRNG(3), 2, 3, []string{"A"}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	st := []byte{0, 0, 0, 0, 9, 0, 0, 0} // s u32 | t u32
	streaming, err := encodeBatchRequest([]BatchQuery{{Class: ClassReach, S: 0, T: 9}}, batchHeader{})
	if err != nil {
		t.Fatal(err)
	}
	streaming[0] |= 1 // the flag bit that used to ask for 'P' frames
	// Version 5 had the request layout of 5 to 8 but unweighted rows: a
	// site must refuse it rather than send rows an older coordinator
	// misreads.
	v5 := append([]byte{5}, v8[1:]...)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for i, tc := range []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"qr", 'r', st},
		{"qr streaming", 'r', cat(st, []byte{1})},
		{"qbr", 'b', cat(st, []byte{4, 0, 0, 0})},
		{"qrr", 'q', cat(st, ab)},
		{"traced qr", 'T', cat(make([]byte, 16), []byte{'r'}, st)},
		{"traced batch", 'T', cat(make([]byte, 16), []byte{'B', 4, 0, 0, 0, 0, 0})},
		// The version-4 query payload — no rows tag — in today's frame: a
		// mixed build must fail loudly, not misparse the queries as a tag.
		{"version-4 batch", kindBatch, cat([]byte{4, 0, 1, 0, 0, 0, 'r'}, st)},
		{"stream bit", kindBatch, streaming},
		{"version-5 batch", kindBatch, v5},
	} {
		id := uint32(100 + i)
		if _, err := sendFrame(raw, id, tc.kind, tc.payload); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gotID, kind, payload, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("%s: no reply: %v", tc.name, err)
		}
		if kind != kindError || len(payload) == 0 || gotID != id {
			t.Fatalf("%s: got frame id=%d kind %q, want an error frame echoing %d", tc.name, gotID, kind, id)
		}
	}
	if n := evals.Count(); n != 0 {
		t.Fatalf("the rejected frames ran %d evaluations", n)
	}

	req, err := encodeBatchRequest([]BatchQuery{{Class: ClassReach, S: 0, T: 9}}, batchHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sendFrame(raw, 7, kindBatch, req); err != nil {
		t.Fatal(err)
	}
	id, kind, payload, _, err := readFrame(r)
	if err != nil || id != 7 || kind != kindAnswer {
		t.Fatalf("batch query after the rejected frames: id=%d kind %q err=%v", id, kind, err)
	}
	_, _, body, err := readTag(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, body, err = obs.DecodeWireSpans(body); err != nil {
		t.Fatal(err)
	}
	if rep, err := decodeBatchReply(body); err != nil || len(rep.parts) != 1 || rep.rowsKind != rowsFull {
		t.Fatalf("batch reply after the rejected frames: %d parts, rows %v, %v", len(rep.parts), rep.rowsKind, err)
	}
	if n := evals.Count(); n != 1 {
		t.Fatalf("the one valid query ran %d evaluations", n)
	}
}

// drw2Request is what a coordinator of the build before "DRW3" opens a
// connection with: the "DRW2" preamble and a version-9 query request for
// qr(0, 9) in the varint frame of id 3.
func drw2Request() []byte {
	v9 := append([]byte{9, 0}, make([]byte, 8)...) // version | flags | instance u64
	v9 = append(v9, 0, 1, 'r', 0, 9)               // generation+1 | count | class | s | t
	frame := append([]byte{byte(2 + len(v9)), 3, kindBatch}, v9...)
	return append([]byte("DRW2"), frame...)
}

// drw3Request is what a coordinator of the previous build opens a
// connection with: the "DRW3" preamble and a query request for qr(0, 9) in
// the varint frame of id 3. The request's layout is today's, but that
// build reads and writes core.Rows terms as absolute node IDs, so only the
// preamble can tell the two apart.
func drw3Request() []byte {
	req := append([]byte{0}, make([]byte, 8)...) // flags | instance u64
	req = append(req, 0, 1, 'r', 0, 9)           // generation+1 | count | class | s | t
	frame := append([]byte{byte(2 + len(req)), 3, kindBatch}, req...)
	return append([]byte("DRW3"), frame...)
}

// assertRefused opens a raw connection to a site, writes what a peer of
// another build would, and fails unless the site closes the connection
// without a byte in reply.
func assertRefused(t *testing.T, addr, peer string, opening []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatalf("%s got %d bytes back, want a closed connection", peer, n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: the site neither answered nor closed the connection", peer)
	}
}

// TestPartialFrameFailsRound: there is one reply per request, so a site
// that answers a query with a retired 'P' frame fails the round with an
// error naming the kind — the frame is neither waited past (a hang) nor
// dropped silently — and no pending entry outlives it.
func TestPartialFrameFailsRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, r, err := acceptRaw(ln)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			id, _, _, _, err := readFrame(r)
			if err != nil {
				return
			}
			// A well-formed pre-retirement partial: state tag, then a reply
			// body with no rows and no parts.
			if err := sendAnswer(conn, id, 'P', 0, 0, encodeBatchReply(nil, batchReply{})); err != nil {
				return
			}
		}
	}()
	co, err := Dial([]string{ln.Addr().String()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err = co.ReachContext(ctx, 0, 9)
	if err == nil || !strings.Contains(err.Error(), `unexpected frame kind 'P'`) {
		t.Fatalf("a 'P' reply returned %v, want an error naming the kind", err)
	}
	if n := co.pendingTotal(); n != 0 {
		t.Fatalf("%d pending entries after the failed round", n)
	}
}

// TestUnweightedDistancePartFailsRound: a distance query part must carry
// weights. A site that answers qbr(0, 9, 5) on the path 0 -> 1 -> ... -> 9
// with a Boolean part — X0 = true, the reach part for (0, 9), which read
// with weights 0 would say dist(0, 9) = 0 — fails the round with an error,
// never an answer.
func TestUnweightedDistancePartFailsRound(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddNodes(10, "")
	for v := graph.NodeID(0); v < 9; v++ {
		b.AddEdge(v, v+1)
	}
	fr, err := fragment.Random(b.MustBuild(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := fr.Fragments()[0]
	rb, err := core.LocalRows(f, nil).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reachPart := core.SourceOnlyReach(f, 0, 9, nil)
	if reachPart.NumEqs() != 1 || reachPart.Weighted() || !reachPart.HasConst() {
		t.Fatalf("the reach part of (0, 9) is not the Boolean X0 = true")
	}
	pb, err := reachPart.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, r, err := acceptRaw(ln)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			id, _, _, _, err := readFrame(r)
			if err != nil {
				return
			}
			body := encodeBatchReply(obs.AppendWireSpans(nil, nil), batchReply{
				rowsKind: rowsFull, tag: rowsTag{fr.Instance(), f.Generation()}, rows: rb,
				owners: []int{0, 0}, parts: [][]byte{pb},
			})
			if err := sendAnswer(conn, id, kindAnswer, 0, 0, body); err != nil {
				return
			}
		}
	}()
	co, err := Dial([]string{ln.Addr().String()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ok, d, _, err := co.ReachWithin(0, 9, 5)
	if err == nil || !strings.Contains(err.Error(), "without weights") {
		t.Fatalf("qbr(0, 9, 5) over an unweighted part = %v/%d, %v; want an error", ok, d, err)
	}
	if n := co.pendingTotal(); n != 0 {
		t.Fatalf("%d pending entries after the failed round", n)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial([]string{"127.0.0.1:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

func TestSiteCrashSurfacesError(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 30, Edges: 90, Seed: 49})
	fr, err := fragment.Random(g, 2, 49)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, _, err := co.Reach(0, 29); err != nil {
		t.Fatalf("healthy round failed: %v", err)
	}
	// Kill one site: the next query must fail loudly, not hang or lie.
	sites[1].Close()
	if _, _, err := co.Reach(0, 29); err == nil {
		t.Fatal("query against a dead site must return an error")
	}
	sites[0].Close()
}
