package netsite

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/oplog"
)

// FuzzDecodeFrame throws arbitrary byte streams at the frame decoder: it
// must either error or produce a frame that re-encodes to exactly the
// bytes it consumed, and report that many bytes as its wire size. Seeds
// come from the edge cases the handwritten tests pin down.
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames of each request kind, plus the codified edge cases.
	for _, payload := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xAB}, 256)} {
		var buf bytes.Buffer
		if _, err := sendFrame(&buf, 42, kindBatch, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0})                                                              // zero length
	f.Add([]byte{1, 5})                                                           // shorter than id+kind
	f.Add(binary.AppendUvarint(nil, maxFrame+1))                                  // length above maxFrame
	f.Add([]byte{0x82, 0x00, 5, 'C'})                                             // padded length
	f.Add([]byte{3, 0x85, 0x00, 'C'})                                             // padded id
	f.Add(append(binary.AppendUvarint([]byte{6}, math.MaxUint32+1), 'C'))         // id above u32
	f.Add(append(binary.AppendUvarint(nil, 100), bytes.Repeat([]byte{7}, 10)...)) // truncated payload
	f.Add([]byte{0x85})                                                           // truncated length varint
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 6), 1, 0, 0, 0, 'B', 8))   // the previous u32 framing
	f.Add(append([]byte(preamble), 3, 1, 'B', 0))                                 // a preamble ahead of a frame
	f.Add(append([]byte("DRW2"), 3, 1, 'B', 9))                                   // an earlier build's preamble and a version-9 payload
	f.Add(drw3Request())                                                          // the previous build's preamble and a qr request
	// Update and rebalance frames, request and reply.
	var upd bytes.Buffer
	ureq, err := encodeUpdateRequest(9, 77, []Op{{Kind: OpInsertEdge, U: 3, V: 4}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sendFrame(&upd, 7, kindUpdate, ureq); err != nil {
		f.Fatal(err)
	}
	if err := sendAnswer(&upd, 7, kindAnswer, 2, 300, encodeUpdateReply(true, []int{0, 2}, nil, fragment.BalanceStats{})); err != nil {
		f.Fatal(err)
	}
	rreq, err := encodeRebalanceRequest(3, 4, 11, "edgecut")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sendFrame(&upd, 1<<20, kindRebalance, rreq); err != nil {
		f.Fatal(err)
	}
	f.Add(upd.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		id, kind, payload, n, err := readFrame(r)
		if err != nil {
			return // rejecting is always legal; not panicking is the property
		}
		if consumed := len(data) - src.Len() - r.Buffered(); n < 1+minFrame || n != consumed {
			t.Fatalf("readFrame reported %d bytes, consumed %d", n, consumed)
		}
		var buf bytes.Buffer
		wn, err := sendFrame(&buf, id, kind, payload)
		if err != nil {
			t.Fatalf("re-encode of a decoded frame failed: %v", err)
		}
		if wn != n || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("frame round trip drifted: read %d bytes, wrote %d", n, wn)
		}
		// An answer's state tag is varints in shortest form too.
		if epoch, lsn, body, err := readTag(payload); err == nil {
			buf.Reset()
			if err := sendAnswer(&buf, id, kind, epoch, lsn, body); err != nil || !bytes.Equal(buf.Bytes(), data[:n]) {
				t.Fatalf("answer tag round trip drifted: %v", err)
			}
		}
	})
}

// FuzzBatchPayload throws arbitrary bytes at every codec of the one query
// path: the request (flags byte, trace context, per-class queries with the
// nested automaton codec), the batch reply with its weighted rows section
// — full rows or a delta — and its query parts (core.Rows, the one codec
// of the rows and of every reach and distance part) and the span section
// that heads a query answer. Whatever decodes must re-encode to the very
// same bytes — the request, the reply, the span section, and a rows
// section or part that decodes as core.Rows — and a delta must patch into
// well-formed rows or be refused; the rest must be rejected with an error,
// never a panic or an implausible allocation.
func FuzzBatchPayload(f *testing.F) {
	rng := gen.NewRNG(7)
	a := automaton.Random(rng, 3, 5, []string{"A", "B"})
	mixed := []BatchQuery{
		{Class: ClassReach, S: 1, T: 2},
		{Class: ClassDist, S: 3, T: 4, L: 6},
		{Class: ClassRPQ, S: 5, T: 6, A: a},
	}
	enc := func(qs []BatchQuery, h batchHeader) []byte {
		b, err := encodeBatchRequest(qs, h)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	const head = 1 + 8 + 1 // flags, instance, generation+1 with no rows held
	seed := enc(mixed, batchHeader{})
	traced := enc(mixed[:1], batchHeader{traced: true, traceID: 0xDEADBEEF, span: 2})
	f.Add(seed)
	f.Add(enc(nil, batchHeader{}))
	f.Add(traced)
	f.Add(enc(nil, batchHeader{traced: true, traceID: 1, span: 1}))
	f.Add(enc(mixed, batchHeader{instance: 0x1122334455667788, held: true, gen: 42})) // tagged: the coordinator holds rows
	f.Add(enc(mixed[:1], batchHeader{traced: true, instance: 1, held: true, traceID: 9, span: 9}))
	f.Add(enc(mixed[:2], batchHeader{instance: 1, held: true, gen: 4, skip: skipList{sites: []int{0, 2}, gens: []uint64{7, 1 << 40}}})) // a warm attempt that skipped two sites
	f.Add(enc(mixed[:1], batchHeader{instance: 3, skip: skipList{sites: []int{1}, gens: []uint64{0}}}))                                 // a skip section with no rows held
	f.Add(enc([]BatchQuery{{Class: ClassReach, S: math.MaxInt32, T: 1 << 20}, {Class: ClassDist, S: 0, T: 1, L: math.MaxUint32}}, batchHeader{}))
	f.Add(traced[:head+7])                                                                      // truncated trace context
	f.Add(seed[:5])                                                                             // truncated instance
	f.Add(append(append([]byte{}, seed[:head-1]...), 0x80))                                     // truncated generation varint
	f.Add(append(append([]byte{}, seed[:head-1]...), 0x81, 0x00))                               // padded generation varint
	f.Add(append(append([]byte{}, traced...), traced...))                                       // a second request nested behind the first
	f.Add(append(append([]byte{}, seed[:head]...), 0xFF, 0xFF, 0xFF, 0x7F))                     // hostile count
	f.Add(append(append([]byte{}, seed[:head]...), 1, 'r', 0x80))                               // truncated node varint
	f.Add(append(append([]byte{}, seed[:head]...), 1, 'r', 0x80, 0x80, 0x80, 0x80, 0x08, 1))    // node above i32
	f.Add(append([]byte{0xFF}, seed[1:]...))                                                    // unknown flag bits
	f.Add(append([]byte{1}, seed[1:]...))                                                       // the retired stream bit
	f.Add(append([]byte{9}, seed...))                                                           // the retired leading version byte
	f.Add(append(append(append([]byte{}, traced[:head+8]...), 0x82, 0x00), traced[head+9:]...)) // padded parent span
	f.Add(seed[:len(seed)-3])                                                                   // truncated query
	ab, err := a.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	withAutomaton := func(ab []byte) []byte {
		return append(append(append([]byte{}, seed[:head]...), 1, 'q', 0, 1, byte(len(ab))), ab...)
	}
	f.Add(withAutomaton(append(ab, 0)))                                 // an automaton with a trailing byte
	f.Add(withAutomaton(append([]byte{ab[0] | 0x80, 0x00}, ab[1:]...))) // an automaton with a padded state count
	f.Add(withAutomaton(fixedWidthAutomaton(a)))                        // an automaton in the retired fixed-width layout
	// Payloads of the retired single-query and envelope frames, and of a
	// kind that was never a query: none may decode as a request.
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0})         // 'r': s | t
	f.Add([]byte{3, 0, 0, 0, 4, 0, 0, 0, 1})      // 'r' with its stream flag
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF})   // 'r' with unknown flag bits
	f.Add(append(make([]byte, 16), 'r', 3, 0, 9)) // 'T': trace ID | span | inner kind | payload
	f.Add(append(make([]byte, 16), 'T', 1))       // 'T' nested in 'T'
	ureq, err := encodeUpdateRequest(9, 77, []Op{{Kind: OpInsertEdge, U: 3, V: 4}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ureq)

	// Both reply shapes, with real equations: evaluate a tiny fragment for
	// its weighted rows and the query parts of a reach and a distance query.
	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 25, Labels: []string{"A"}, Seed: 5})
	fr, err := fragment.Random(g, 2, 5)
	if err != nil {
		f.Fatal(err)
	}
	frag := fr.Fragments()[0]
	rb, err := core.LocalRows(frag, nil).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	part := new(core.Rows) // unweighted, as a site ships a reach part
	part.Append(core.SourceOnlyReach(frag, 0, 7, nil))
	part.Append(core.TargetOnlyReach(frag, 7, nil))
	pb, err := part.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	var dpart *core.Rows // the first qbr(s, t, 6) with a query part here
	for s := graph.NodeID(0); dpart == nil; s++ {
		dpart = core.DistQueryPart(frag, s, (s+3)%10, 6, nil)
	}
	db, err := dpart.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	miss := batchReply{rowsKind: rowsFull, tag: rowsTag{fr.Instance(), frag.Generation()}, rows: rb, parts: [][]byte{pb, db, {0xFF}}}
	hit := batchReply{owners: []int{0, 1, -1, 0}, parts: [][]byte{pb, db, {0xFF}}}
	f.Add(encodeBatchReply(nil, miss))                                                                                      // the coordinator held no current rows
	f.Add(encodeBatchReply(nil, hit))                                                                                       // it did: query parts only
	f.Add(encodeBatchReply(nil, batchReply{stale: []int{1, 3}, owners: []int{2, 2}, parts: [][]byte{nil}}))                 // two skipped sites found stale
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: rb}))                                   // rows and no parts
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: db}))                                   // a section with a constant term
	f.Add(encodeBatchReply(nil, miss)[:1+8+1+1])                                                                            // truncated rows length
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: rb[:len(rb)/2]}))                       // truncated rows
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: []byte{1, 0xFF, 0xFF, 0xFF, 0x7F}}))    // hostile equation count
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: []byte{1, 1, 0, 0, 0xFF, 0xFF, 0x7F}})) // hostile disjunct count
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag,
		rows: []byte{1, 1, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}})) // overlong weight
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: []byte{2, 1, 1, 0, 0, 1, 1, 1}})) // rows with the retired version byte
	// Rows deltas against base, fragment 0's rows at generation 1: one that
	// patches, and each shape the coordinator refuses — a delta to the held
	// generation (not taken against the held copy), changed heads out of
	// order, a dropped head the base does not hold (a delta to a request
	// that named no rows is tried on every delta that decodes, below).
	base := &siteRows{tag: rowsTag{fr.Instance(), 1}, rv: core.LocalRows(frag, nil)}
	head0, _, _, _ := base.rv.Eq(0)
	deltaOf := func(gen uint64, heads []graph.NodeID, dropped ...graph.NodeID) []byte {
		return encodeBatchReply(nil, batchReply{rowsKind: rowsDelta, tag: rowsTag{gen: gen}, rows: rowsWithHeads(heads...), dropped: dropped, parts: [][]byte{nil}})
	}
	f.Add(deltaOf(2, []graph.NodeID{head0, 99}, head0+1))                                         // changes one head, adds another, drops one it may not hold
	f.Add(deltaOf(2, nil, head0))                                                                 // drops a head the base holds
	f.Add(deltaOf(1, []graph.NodeID{99}))                                                         // a delta to the held generation
	f.Add(deltaOf(2, []graph.NodeID{99, head0}))                                                  // changed heads out of order
	f.Add(deltaOf(2, nil, 98))                                                                    // a dropped head the base does not hold
	f.Add(deltaOf(2, nil, 98, head0))                                                             // dropped heads out of order
	f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsDelta, tag: rowsTag{gen: 2}, rows: db})) // changed equations with a constant term
	f.Add([]byte{3, 0, 0, 0})                                                                     // unknown rows flag
	f.Add([]byte{0, 0, 0, 1, 0x80, 0x00})                                                         // padded part length
	f.Add([]byte{9, 0, 0, 0, 0})                                                                  // the retired leading version byte

	// A query answer body: span section, then the batch reply.
	rec := obs.NewRecorder(time.Now())
	t0 := time.Now()
	rec.Span(-1, "queue", t0, t0.Add(time.Millisecond))
	rec.Span(-1, "eval", t0, t0.Add(2*time.Millisecond),
		obs.Attr{Key: "reachindex_outcome", Val: "hit"})
	f.Add(encodeBatchReply(rec.AppendWire(nil), batchReply{parts: [][]byte{{1, 0, 4}}}))
	f.Add(obs.AppendWireSpans(nil, nil))     // untraced: the empty section
	f.Add([]byte{0xFF, 0xFF})                // hostile span count
	f.Add([]byte{0x80, 0x00})                // padded span count
	f.Add([]byte{1, 0, 0, 0x80, 0x00, 0, 0}) // padded start offset
	// One span in the retired fixed-width layout (parent i16, name length
	// u8, start and duration u64 big-endian, attribute count u8).
	f.Add([]byte{1, 0xFF, 0xFF, 1, 'q', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0})
	// Replies carrying a regex query's product rows: real ones, and each
	// shape the coordinator refuses — a zero gap between terms, a
	// descending head, a product key of 2^31 and a part in the retired
	// RPQPartial layout.
	qb, err := core.LocalEvalRPQ(frag, 0, 7, a).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, qp := range [][]byte{qb, {0, 1, 10, 1, 2, 5, 0}, {0, 2, 10, 0, 0, 3, 0, 0},
		{0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 0}, {12, 1, 10, 1, 5, 1, 17}} {
		f.Add(encodeBatchReply(nil, batchReply{rowsKind: rowsFull, tag: miss.tag, rows: rb, parts: [][]byte{pb, db, qp}}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if qs, h, err := decodeBatchRequest(data); err == nil {
			re, err := encodeBatchRequest(qs, h)
			if err != nil {
				t.Fatalf("re-encode of a decoded batch failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("batch request re-encodes as %x, not %x", re, data)
			}
		}
		if rep, err := decodeBatchReply(data); err == nil {
			if re := encodeBatchReply(nil, rep); !bytes.Equal(re, data) {
				t.Fatalf("batch reply re-encodes as %x, not %x", re, data)
			}
			// The coordinator decodes the rows section and every reach or
			// distance part once and keeps the equations: whatever decodes
			// must be exactly what the bytes said.
			sections := rep.parts
			if rep.rowsKind != rowsNone {
				sections = append(slices.Clip(sections), rep.rows)
			}
			for i, sec := range sections {
				rv := new(core.Rows)
				if rv.UnmarshalBinary(sec) != nil {
					continue
				}
				if b, err := rv.MarshalBinary(); err != nil || !bytes.Equal(b, sec) {
					t.Fatalf("section %d decodes as Rows but re-encodes as %x, not %x (%v)", i, b, sec, err)
				}
				// What a regex part must be for the coordinator's walk to
				// search it, it is; the walk then ends on any keys.
				if core.CheckRPQPartial(rv) == nil {
					core.WalkRPQ([]*core.Rows{rv}, 0, 3, func(graph.NodeID) int { return -1 })
				}
			}
			// A delta patches only the copy its request named, and what it
			// patches into is a list of rows: heads ascending, no
			// constants.
			if rep.rowsKind == rowsDelta {
				sol := &batchSolver{held: []*siteRows{nil}}
				if _, err := sol.patch(0, rep); err == nil {
					t.Fatal("a delta patched rows the request never named")
				}
				sol.held[0] = base
				if rows, err := sol.patch(0, rep); err == nil {
					for i := 0; i < rows.rv.NumEqs(); i++ {
						node, cons, _, _ := rows.rv.Eq(i)
						if prev, _, _, _ := rows.rv.Eq(max(i-1, 0)); i > 0 && node <= prev || cons != core.NoConst {
							t.Fatalf("patched rows: equation %d of %d, after %d's, constant %d", i, node, prev, cons)
						}
					}
				}
			}
		}
		if spans, body, err := obs.DecodeWireSpans(data); err == nil {
			if re := append(obs.AppendWireSpans(nil, spans), body...); !bytes.Equal(re, data) {
				t.Fatalf("query answer re-encodes as %x, not %x", re, data)
			}
		}
	})
}

// FuzzUpdatePayload throws arbitrary bytes at the multi-op update frame
// codecs: whatever decodes must survive a re-encode round trip; the rest
// must be rejected with an error, never a panic or an implausible
// allocation.
func FuzzUpdatePayload(f *testing.F) {
	mixed, err := encodeUpdateRequest(17, 23, []Op{
		{Kind: OpInsertEdge, U: 1, V: 2},
		{Kind: OpDeleteEdge, U: 0xFFFFFF, V: 0},
		{Kind: OpInsertNode, Label: "A", Frag: -1},
		{Kind: OpInsertNode, Label: "long-label", Frag: 3},
		{Kind: OpDeleteNode, U: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	single, err := encodeUpdateRequest(0, 0, []Op{{Kind: OpDeleteEdge, U: 5, V: 6}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	bs := fragment.BalanceStats{Fragments: 3, MaxSize: 40, MinSize: 10, TotalSize: 90, Vf: 12, CrossEdges: 30}
	f.Add(encodeUpdateReply(true, []int{0, 1, 5}, []graph.NodeID{9}, bs))
	f.Add(encodeUpdateReply(false, nil, nil, fragment.BalanceStats{}))
	noLSN := make([]byte, 1+8)                                  // LSN 0, nonce 0
	f.Add(append(noLSN, 0xFF, 0xFF, 0xFF, 0x7F))                // hostile op count
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0x7F})                    // hostile dirty count
	f.Add(append(mixed[:len(mixed)-2], 0xFF))                   // truncated op
	f.Add([]byte{'i', 1, 0, 0, 0, 2, 0, 0, 0})                  // legacy v1 single-edge frame
	f.Add([]byte{2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'i'})   // legacy v2 frame
	f.Add(append(noLSN, 1, 'n', 0xFF))                          // truncated node op
	f.Add(append([]byte{0x91, 0x00}, single[1:]...))            // padded LSN
	f.Add([]byte{1, 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0})        // padded dirty count
	f.Add(append([]byte{0, 1, 0x80, 0x00}, make([]byte, 6)...)) // padded dirty fragment
	// The retired fixed-width layouts (version 3): a request (lsn and
	// nonce u64, op count u32, u and v u32) and a reply (changed, dirty
	// and new-ID lists u32-counted, balance stats u32/u64).
	f.Add([]byte{3, 9, 0, 0, 0, 0, 0, 0, 0, 77, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'i', 3, 0, 0, 0, 4, 0, 0, 0})
	f.Add(append([]byte{3, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 28)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if lsn, nonce, ops, err := decodeUpdateRequest(data); err == nil {
			re, err := encodeUpdateRequest(lsn, nonce, ops)
			if err != nil {
				t.Fatalf("re-encode of a decoded update failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("update request round trip drifted")
			}
		}
		if changed, dirty, ids, bs, err := decodeUpdateReply(data); err == nil {
			if !bytes.Equal(encodeUpdateReply(changed, dirty, ids, bs), data) {
				t.Fatalf("update reply round trip drifted")
			}
		}
	})
}

// FuzzSyncPayload throws arbitrary bytes at the catch-up replication
// ('S') frame codecs: the replay record list must survive a re-encode
// round trip, and the snapshot decoder — which nests the graph and
// assignment text codecs plus a fingerprint check — must reject hostile
// input with an error, never a panic or an implausible allocation.
func FuzzSyncPayload(f *testing.F) {
	rep, err := encodeSyncReplay([]oplog.Record{
		{LSN: 5, Ops: []Op{{Kind: OpInsertEdge, U: 1, V: 2}}},
		{LSN: 6, Ops: []Op{{Kind: OpInsertNode, Label: "A", Frag: -1}, {Kind: OpDeleteNode, U: 3}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rep)
	empty, err := encodeSyncReplay(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{syncHello})
	f.Add([]byte{syncFetch})
	f.Add([]byte{syncReplay, 0xFF, 0xFF, 0xFF, 0xFF})         // hostile record count
	f.Add(rep[:len(rep)-3])                                   // truncated record
	f.Add(append([]byte{syncReplay, 0x82, 0x00}, rep[2:]...)) // padded record count
	// One record in the retired fixed-width layout: count u32, lsn u64,
	// op count u32, an edge insert with u32 endpoints.
	f.Add([]byte{syncReplay, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'i', 1, 0, 0, 0, 2, 0, 0, 0})
	// A real snapshot seed, plus mutilations of it.
	g := gen.Uniform(gen.Config{Nodes: 12, Edges: 30, Labels: []string{"A", "B"}, Seed: 11})
	fr, err := fragment.Random(g, 2, 11)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := oplog.TakeSnapshot(fragment.NewReplicaAt(fr, 3, 9))
	if err != nil {
		f.Fatal(err)
	}
	sb, err := oplog.EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{syncSnapshot}, sb...))
	f.Add(append([]byte{syncSnapshot}, sb[:len(sb)/2]...))
	mut := append([]byte{syncSnapshot}, sb...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	v := 1 + len("DRSNAP")                                                                                  // the version byte
	f.Add(append(append([]byte{syncSnapshot}, sb[:v-1]...), append([]byte{3}, sb[v:]...)...))               // the retired version 3
	f.Add(append(append([]byte{syncSnapshot}, sb[:v]...), append([]byte{sb[v] | 0x80, 0}, sb[v+1:]...)...)) // padded LSN

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		switch data[0] {
		case syncReplay:
			if recs, err := decodeSyncReplay(data[1:]); err == nil {
				re, err := encodeSyncReplay(recs)
				if err != nil {
					t.Fatalf("re-encode of a decoded replay failed: %v", err)
				}
				if !bytes.Equal(re, data) {
					t.Fatalf("replay round trip drifted")
				}
			}
		case syncSnapshot:
			if snap, err := oplog.DecodeSnapshot(data[1:]); err == nil {
				// Whatever decodes (and passes the fingerprint check) must
				// re-encode to a decodable snapshot with the same identity.
				re, err := oplog.EncodeSnapshot(snap)
				if err != nil {
					t.Fatalf("re-encode of a decoded snapshot failed: %v", err)
				}
				snap2, err := oplog.DecodeSnapshot(re)
				if err != nil {
					t.Fatalf("decode of a re-encoded snapshot failed: %v", err)
				}
				if snap2.LSN != snap.LSN || snap2.Epoch != snap.Epoch || snap2.Fingerprint != snap.Fingerprint {
					t.Fatalf("snapshot identity drifted: %+v vs %+v", snap, snap2)
				}
			}
		}
	})
}

// FuzzRebalancePayload throws arbitrary bytes at the rebalance frame
// codecs with the same round-trip-or-reject property.
func FuzzRebalancePayload(f *testing.F) {
	for _, name := range []string{"edgecut", "random", "x"} {
		req, err := encodeRebalanceRequest(5, 4, 99, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(req)
	}
	bs := fragment.BalanceStats{Fragments: 4, MaxSize: 25, MinSize: 20, TotalSize: 88, Vf: 9, CrossEdges: 14}
	f.Add(encodeRebalanceReply(6, true, 0xDEADBEEF, bs))
	f.Add(encodeRebalanceReply(0, false, 0, fragment.BalanceStats{}))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0}) // truncated request
	f.Add(bytes.Repeat([]byte{0xFF}, 22))             // hostile name length
	req, err := encodeRebalanceRequest(5, 4, 99, "edgecut")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{0x85, 0x00}, req[1:]...)) // padded epoch
	// The retired fixed-width request: epoch u64, k u32, seed u64, name
	// length u8 and name; and reply: epoch u64, applied, fingerprint u64,
	// balance stats u32/u64.
	f.Add(append([]byte{5, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 7}, "edgecut"...))
	f.Add(append([]byte{6, 0, 0, 0, 0, 0, 0, 0, 1, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0}, make([]byte, 28)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, k, seed, name, err := decodeRebalanceRequest(data); err == nil {
			re, err := encodeRebalanceRequest(epoch, k, seed, name)
			if err != nil {
				t.Fatalf("re-encode of a decoded rebalance request failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("rebalance request round trip drifted")
			}
		}
		if epoch, applied, fp, bs, err := decodeRebalanceReply(data); err == nil {
			if !bytes.Equal(encodeRebalanceReply(epoch, applied, fp, bs), data) {
				t.Fatalf("rebalance reply round trip drifted")
			}
		}
	})
}

// fixedWidthAutomaton encodes a in the automaton layout this protocol
// retired (version 1: u32 counts and lengths, transitions as (from, to)
// u32 pairs), which no decoder may accept.
func fixedWidthAutomaton(a *automaton.Automaton) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{1}, uint32(a.NumStates()))
	for u := 0; u < a.NumStates(); u++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.StateLabel(u))))
		b = append(b, a.StateLabel(u)...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(a.NumTransitions()))
	for u := 0; u < a.NumStates(); u++ {
		for _, v := range a.Next(u) {
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return b
}
