package netsite

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
)

// sendFrame writes one frame carrying payload, the way a hand-rolled test
// peer does.
func sendFrame(w io.Writer, id uint32, kind byte, payload []byte) (int, error) {
	return writeFrame(w, id, kind, append(newFrame(len(payload)), payload...), frameHeadroom)
}

// sendAnswer writes one response frame: the (epoch, lsn) state tag, then
// body.
func sendAnswer(w io.Writer, id uint32, kind byte, epoch, lsn uint64, body []byte) error {
	buf := append(newFrame(len(body)), body...)
	_, err := writeFrame(w, id, kind, buf, putTag(buf, epoch, lsn))
	return err
}

// dialRaw opens a connection to a site for hand-rolled frames: the
// preamble is written, and frames are read through the returned reader.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(raw, preamble); err != nil {
		t.Fatal(err)
	}
	return raw, bufio.NewReader(raw)
}

// acceptRaw accepts one coordinator connection on ln for a fake site and
// consumes its preamble; frames are read through the returned reader.
func acceptRaw(ln net.Listener) (net.Conn, *bufio.Reader, error) {
	conn, err := ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	r := bufio.NewReader(conn)
	if err := readPreamble(r); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, r, nil
}

// read decodes one frame from raw bytes.
func read(b []byte) (uint32, byte, []byte, int, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(b)))
}

func TestFrameRoundTrip(t *testing.T) {
	for _, id := range []uint32{0, 42, 200, math.MaxUint32} {
		for _, payload := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 4096)} {
			var buf bytes.Buffer
			n, err := sendFrame(&buf, id, kindBatch, payload)
			if err != nil {
				t.Fatal(err)
			}
			if n != buf.Len() {
				t.Fatalf("writeFrame reported %d bytes, wrote %d", n, buf.Len())
			}
			gid, kind, got, rn, err := readFrame(bufio.NewReader(&buf))
			if err != nil {
				t.Fatal(err)
			}
			if gid != id || kind != kindBatch || !bytes.Equal(got, payload) || rn != n {
				t.Fatalf("round trip: id=%d kind=%q len=%d n=%d", gid, kind, len(got), rn)
			}
		}
	}
	// The header is varints: a small frame pays three bytes of it.
	var buf bytes.Buffer
	if n, _ := sendFrame(&buf, 5, kindSync, nil); n != 3 {
		t.Fatalf("an empty frame with a one-byte id took %d bytes, want 3", n)
	}
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	if _, _, _, _, err := read([]byte{0}); err == nil {
		t.Fatal("zero-length frame must be rejected")
	}
}

func TestReadFrameRejectsShortFrame(t *testing.T) {
	// Shorter than id+kind: legal frames carry at least 2 bytes after the
	// length prefix, and the id varint must end before the kind.
	for _, in := range [][]byte{{1, 5}, {2, 0x81, 0x01}} {
		if _, _, _, _, err := read(in); err == nil {
			t.Fatalf("frame %x shorter than its header must be rejected", in)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	// Rejected from the length alone: nothing is allocated for it.
	for _, in := range [][]byte{binary.AppendUvarint(nil, maxFrame+1), {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}} {
		if _, _, _, _, err := read(in); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("length %x: got %v, want a rejection", in, err)
		}
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	// The header promises 100 bytes and the stream ends after 10: the
	// reader must fail with an unexpected-EOF class error, not block or
	// fabricate.
	in := append(binary.AppendUvarint(nil, 100), bytes.Repeat([]byte{7}, 10)...)
	if _, _, _, _, err := read(in); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	if _, _, _, _, err := read([]byte{0x85}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestPreambleRefusedByOldFraming: a site of the framing before the
// varint one reads the preamble as its length u32 and must refuse it, so a
// current coordinator fails loudly against it rather than being misparsed;
// and a current site must close the connection of a coordinator of an
// earlier build — "DRW2" ahead of a version-9 request, or "DRW3", whose
// rows carry absolute term IDs — before anything is evaluated.
func TestPreambleRefusedByOldFraming(t *testing.T) {
	const oldMaxFrame = 1 << 28
	for _, p := range []string{preamble, "DRW3", "DRW2"} {
		if n := binary.LittleEndian.Uint32([]byte(p)); n <= oldMaxFrame {
			t.Fatalf("the preamble %q reads as a plausible old-framing length %d", p, n)
		}
	}
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
	assertRefused(t, addrs[0], "a DRW2 peer", drw2Request())
	assertRefused(t, addrs[0], "a DRW3 peer", drw3Request())
	if n := reg.HistogramVec("site_eval_seconds", "", "kind", nil).With("query").Count(); n != 0 {
		t.Fatalf("the earlier builds' requests ran %d evaluations", n)
	}
}

// countingRelay forwards TCP connections to one site and counts the bytes
// it relays in each direction: what really crossed the socket.
type countingRelay struct {
	ln       net.Listener
	up, down atomic.Int64 // coordinator to site, site to coordinator
	mu       sync.Mutex
	conns    []net.Conn
}

func newCountingRelay(t *testing.T, target string) *countingRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &countingRelay{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, c, s)
			r.mu.Unlock()
			go r.pipe(s, c, &r.up)
			go r.pipe(c, s, &r.down)
		}
	}()
	return r
}

// pipe copies src to dst, counting what it wrote.
func (r *countingRelay) pipe(dst, src net.Conn, n *atomic.Int64) {
	buf := make([]byte, 32<<10)
	for {
		m, err := src.Read(buf)
		if m > 0 {
			w, _ := dst.Write(buf[:m])
			n.Add(int64(w))
		}
		if err != nil {
			dst.Close()
			return
		}
	}
}

func (r *countingRelay) close() {
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
}

// TestWireStatsMatchSocketBytes puts a counting TCP relay in front of each
// site and checks that the summed per-round WireStats — plus each
// connection's preamble — and the coordinator's WireTotals both equal the
// bytes the relays carried, in each direction, over cold and warm qr, qbr
// and qrr rounds, a mixed batch and an anytime round decided before its
// stragglers reply. That round writes nothing after its requests; the
// stragglers' late replies cross the relays and count in WireTotals, not
// in the round. Frames are read through a buffered reader, so this pins
// that a frame reports its own wire size, not what the reader buffered
// around it.
func TestWireStatsMatchSocketBytes(t *testing.T) {
	labels := []string{"A", "B"}
	g := gen.Uniform(gen.Config{Nodes: 90, Edges: 300, Labels: labels, Seed: 17})
	const k = 3
	fr, err := fragment.Random(g, k, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Sites 1 and 2 are slow, so a round that site 0 alone decides is
	// decided before they reply.
	rep := fragment.NewReplica(fr)
	relays := make([]*countingRelay, k)
	addrs := make([]string, k)
	for i := range relays {
		var o SiteOptions
		if i > 0 {
			o.Delay = 50 * time.Millisecond
		}
		s, err := NewSiteReplica("127.0.0.1:0", rep, i, o)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		relays[i] = newCountingRelay(t, s.Addr())
		defer relays[i].close()
		addrs[i] = relays[i].ln.Addr().String()
	}
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	sumSent, sumRecv := int64(k*len(preamble)), int64(0)
	acc := func(st WireStats) {
		sumSent += st.BytesSent
		sumRecv += st.BytesReceived
	}
	// The anytime round: a fresh coordinator posts every site, and an
	// edge inside fragment 0 is proved by site 0's reply alone.
	var s0, t0 graph.NodeID = -1, -1
	for u := graph.NodeID(0); s0 < 0 && int(u) < g.NumNodes(); u++ {
		for _, v := range g.Out(u) {
			if v != u && fr.Owner(u) == 0 && fr.Owner(v) == 0 {
				s0, t0 = u, v
				break
			}
		}
	}
	if s0 < 0 {
		t.Fatal("no edge inside fragment 0")
	}
	ok, st, err := co.Reach(s0, t0)
	if err != nil || !ok {
		t.Fatalf("qr(%d, %d) = %v, %v", s0, t0, ok, err)
	}
	if !st.EarlyTerminated || st.CancelFrames != 0 {
		t.Fatalf("the anytime round was not decided early, or wrote a cancel: %+v", st)
	}
	acc(st)
	// The stragglers still reply. Wait until the read loop has drained
	// each late reply whole — what it read equals what the relay carried —
	// and take their size at the relays.
	var late int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		late = 0
		drained := true
		for i := 1; i < k; i++ {
			d := relays[i].down.Load()
			drained = drained && d > 0 && d == co.conns[i].bytesReceived.Load()
			late += d
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the stragglers' late replies never arrived")
		}
	}
	if d := relays[0].down.Load(); st.BytesReceived != d {
		t.Fatalf("the anytime round received %d bytes, site 0 sent %d", st.BytesReceived, d)
	}
	if n := co.pendingTotal(); n != 0 {
		t.Fatalf("%d pending entries after the late replies drained", n)
	}

	co.SetAnytime(false)
	rng := gen.NewRNG(18)
	nn := g.NumNodes()
	node := func() graph.NodeID { return graph.NodeID(rng.Intn(nn)) }
	for i := 0; i < 12; i++ { // cold, then warm as rows and owners are learned
		qs := []BatchQuery{{Class: ClassReach, S: node(), T: node()}}
		switch i % 4 {
		case 1:
			qs[0].Class, qs[0].L = ClassDist, 5
		case 2:
			qs[0].Class, qs[0].A = ClassRPQ, automaton.Random(rng, 3, 5, labels)
		case 3:
			qs = append(qs, BatchQuery{Class: ClassDist, S: node(), T: node(), L: 4},
				BatchQuery{Class: ClassRPQ, S: node(), T: node(), A: automaton.Random(rng, 3, 5, labels)})
		}
		_, st, err := co.Batch(qs)
		if err != nil {
			t.Fatal(err)
		}
		acc(st)
	}
	// Warm reach rounds over learned nodes post only the owners.
	for i := 0; i < 6; i++ {
		_, st, err := co.Reach(s0, node())
		if err != nil {
			t.Fatal(err)
		}
		acc(st)
	}

	sent, recv := co.WireTotals()
	var up, down int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		up, down = 0, 0
		for _, r := range relays {
			up += r.up.Load()
			down += r.down.Load()
		}
		if up == sent && down == recv || time.Now().After(deadline) {
			break
		}
	}
	if sent != sumSent || up != sumSent {
		t.Fatalf("sent: per-round stats and preambles %d, WireTotals %d, relayed %d", sumSent, sent, up)
	}
	if recv != sumRecv+late || down != sumRecv+late {
		t.Fatalf("received: per-round stats %d and late replies %d, WireTotals %d, relayed %d", sumRecv, late, recv, down)
	}
}

// TestWarmReachFrameBudget pins the framing cost of the cheapest round: a
// warm single qr whose s and t share an owner, over sites sharing one
// replica, posts that one site. Its request and reply must fit the layout's
// budget — R bytes, and P bytes plus the query part — so a header
// regression fails here, not only in the benchmark.
func TestWarmReachFrameBudget(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 100, Labels: []string{"A"}, Seed: 23})
	fr, err := fragment.Random(g, 2, 23)
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
	var a, b graph.NodeID = 1, 2
	for fr.Owner(b) != fr.Owner(a) {
		b++
	}
	// Cold: every site ships its rows and names the owners of a and b.
	if _, st, err := co.Reach(a, b); err != nil || st.FramesSent != 2 || st.RowsReplies != 2 {
		t.Fatalf("cold qr(%d, %d): %+v, %v", a, b, st, err)
	}
	got, st, err := co.Reach(b, a)
	if err != nil || got != g.Reachable(b, a) {
		t.Fatalf("warm qr(%d, %d) = %v, %v", b, a, got, err)
	}
	if st.FramesSent != 1 || st.FramesReceived != 1 || st.RowsReplies != 0 {
		t.Fatalf("warm qr(%d, %d) posted %d sites, %d rows replies; want the owner alone", b, a, st.FramesSent, st.RowsReplies)
	}
	// What the owner ships for qr(b, a): b's equation and the in-nodes
	// that reach a.
	frag := fr.Fragments()[fr.Owner(a)]
	part := new(core.Rows)
	part.Append(core.SourceOnlyReach(frag, b, a))
	part.Append(core.TargetOnlyReach(frag, a, nil))
	partial := 0
	if part.NumEqs() > 0 {
		pb, err := part.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		partial = len(pb)
	}
	const (
		// length 1 | id 1 | kind 1 || flags 1 | instance 8 |
		// generation+1 1 || count 1 | class 1 | s 1 | t 1 || skip: n 1 |
		// site 1 | generation 1 (measured: 20)
		R = 3 + 10 + 4 + 3
		// length 1 | id 1 | kind 1 || epoch 1 | lsn 1 || spans 1 ||
		// rows flag 1 | stale 1 | owners 1 + 2 | count 1 | plen 1, then
		// the part (measured: 13 + a 5-byte part)
		P = 3 + 2 + 1 + 7
	)
	t.Logf("warm qr: request %d B, reply %d B with a %d-byte part", st.BytesSent, st.BytesReceived, partial)
	if st.BytesSent > R {
		t.Errorf("warm qr request: %d bytes, budget %d", st.BytesSent, R)
	}
	if st.BytesReceived > int64(P+partial) {
		t.Errorf("warm qr reply: %d bytes, budget %d + a %d-byte part", st.BytesReceived, P, partial)
	}
}

// BenchmarkFrameIO writes one frame the size of a warm reach reply — a
// one-query reply body with a 12-byte part, behind the untraced span
// section and the (epoch, lsn) tag — into its frame buffer and reads it
// back through a connection's buffered reader: the per-frame cost of the
// frame layer on both ends.
func BenchmarkFrameIO(b *testing.B) {
	rep := batchReply{owners: []int{0, 1}, parts: [][]byte{make([]byte, 12)}}
	var conn bytes.Buffer
	r := bufio.NewReader(&conn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := encodeBatchReply(obs.AppendWireSpans(newFrame(rep.size()+1), nil), rep)
		if _, err := writeFrame(&conn, uint32(i), kindAnswer, buf, putTag(buf, 3, 12345)); err != nil {
			b.Fatal(err)
		}
		if _, _, _, _, err := readFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}
