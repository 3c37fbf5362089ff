package netsite

import (
	"bytes"
	"reflect"
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
// bytes it consumed. Seeds come from the edge cases the handwritten tests
// pin down.
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames of each request kind, plus the codified edge cases.
	for _, payload := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xAB}, 256)} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, 42, kindBatch, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(rawHeader(0))                                           // zero length
	f.Add(append(rawHeader(3), 1, 2, 3))                          // shorter than id+kind
	f.Add(rawHeader(maxFrame + 1))                                // oversized length
	f.Add(append(rawHeader(100), bytes.Repeat([]byte{7}, 10)...)) // truncated payload
	f.Add([]byte{1, 0})                                           // truncated header
	// Update and rebalance frames, request and reply.
	var upd bytes.Buffer
	ureq, err := encodeUpdateRequest(9, 77, []Op{{Kind: OpInsertEdge, U: 3, V: 4}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&upd, 7, kindUpdate, ureq); err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&upd, 7, kindAnswer, encodeUpdateReply(true, []int{0, 2}, nil, fragment.BalanceStats{})); err != nil {
		f.Fatal(err)
	}
	rreq, err := encodeRebalanceRequest(3, 4, 11, "edgecut")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&upd, 8, kindRebalance, rreq); err != nil {
		f.Fatal(err)
	}
	f.Add(upd.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, payload, n, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejecting is always legal; not panicking is the property
		}
		if n < 4+minFrame || n > len(data) {
			t.Fatalf("readFrame consumed %d of %d bytes", n, len(data))
		}
		var buf bytes.Buffer
		wn, err := writeFrame(&buf, id, kind, payload)
		if err != nil {
			t.Fatalf("re-encode of a decoded frame failed: %v", err)
		}
		if wn != n || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("frame round trip drifted: read %d bytes, wrote %d", n, wn)
		}
	})
}

// FuzzBatchPayload throws arbitrary bytes at every codec of the one query
// path: the request (flags byte, trace context, per-class queries with the
// nested automaton codec), the batch reply with its weighted rows section
// and its query parts (core.Rows, the one codec of the rows and of every
// reach and distance part) and the span section that heads a query answer.
// Whatever decodes must re-encode and decode back to the same thing — a
// rows section or part that decodes as core.Rows, to the very same bytes;
// the rest must be rejected with an error, never a panic or an implausible
// allocation.
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
	seed := enc(mixed, batchHeader{})
	traced := enc(mixed[:1], batchHeader{traced: true, traceID: 0xDEADBEEF, span: 2})
	f.Add(seed)
	f.Add(enc(nil, batchHeader{}))
	f.Add(traced)
	f.Add(enc(nil, batchHeader{traced: true, traceID: 1, span: 1}))
	f.Add(enc(mixed, batchHeader{rows: rowsTag{0x1122334455667788, 42}})) // tagged: the coordinator holds rows
	f.Add(enc(mixed[:1], batchHeader{traced: true, rows: rowsTag{1, 0}, traceID: 9, span: 9}))
	f.Add(enc(mixed[:2], batchHeader{rows: rowsTag{1, 4}, skip: skipList{instance: 1, sites: []int{0, 2}, gens: []uint64{7, 1 << 40}}})) // a warm attempt that skipped two sites
	f.Add(traced[:spanOffset+7])                                                                                                         // truncated trace context
	f.Add(seed[:tagOffset+5])                                                                                                            // truncated rows tag
	f.Add(append(append([]byte{}, traced...), traced...))                                                                                // a second request nested behind the first
	f.Add(append(append([]byte{}, seed[:tagOffset+rowsTagSize]...), 0xFF, 0xFF, 0xFF, 0xFF))                                             // hostile count
	f.Add(append([]byte{batchVersion, 0xFF}, seed[2:]...))                                                                               // unknown flag bits
	f.Add(append([]byte{batchVersion, 1}, seed[2:]...))                                                                                  // the retired stream bit
	f.Add(append([]byte{batchVersion - 1, 0}, seed[tagOffset+rowsTagSize:]...))                                                          // the previous version's layout
	f.Add(seed[:len(seed)-3])                                                                                                            // truncated query
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
	miss := batchReply{hasRows: true, tag: rowsTag{fr.Instance(), frag.Generation()}, rows: rb, parts: [][]byte{pb, db, {0xFF}}}
	hit := batchReply{owners: []int{0, 1, -1, 0}, parts: [][]byte{pb, db, {0xFF}}}
	f.Add(encodeBatchReply(nil, miss))                                                                                    // the coordinator held no current rows
	f.Add(encodeBatchReply(nil, hit))                                                                                     // it did: query parts only
	f.Add(encodeBatchReply(nil, batchReply{stale: []int{1, 3}, owners: []int{2, 2}, parts: [][]byte{nil}}))               // two skipped sites found stale
	f.Add(encodeBatchReply(nil, batchReply{hasRows: true, tag: miss.tag, rows: rb}))                                      // rows and no parts
	f.Add(encodeBatchReply(nil, batchReply{hasRows: true, tag: miss.tag, rows: db}))                                      // a section with a constant term
	f.Add(encodeBatchReply(nil, miss)[:2+rowsTagSize+2])                                                                  // truncated rows length
	f.Add(encodeBatchReply(nil, batchReply{hasRows: true, tag: miss.tag, rows: rb[:len(rb)/2]}))                          // truncated rows
	f.Add(encodeBatchReply(nil, batchReply{hasRows: true, tag: miss.tag, rows: []byte{2, 1, 0xFF, 0xFF, 0xFF, 0x7F}}))    // hostile equation count
	f.Add(encodeBatchReply(nil, batchReply{hasRows: true, tag: miss.tag, rows: []byte{2, 1, 1, 0, 0, 0xFF, 0xFF, 0x7F}})) // hostile disjunct count
	f.Add(encodeBatchReply(nil, batchReply{hasRows: true, tag: miss.tag,
		rows: []byte{2, 1, 1, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}})) // overlong weight
	f.Add([]byte{batchVersion, 2, 0, 0, 0, 0})              // unknown rows flag
	f.Add([]byte{batchVersion - 1, 0, 0, 0, 0, 0, 0, 0, 0}) // the previous version's empty reply

	// A query answer body: span section, then the batch reply.
	rec := obs.NewRecorder(time.Now())
	t0 := time.Now()
	rec.Span(-1, "queue", t0, t0.Add(time.Millisecond))
	rec.Span(-1, "eval", t0, t0.Add(2*time.Millisecond),
		obs.Attr{Key: "reachindex_outcome", Val: "hit"})
	f.Add(encodeBatchReply(rec.Wire(), batchReply{parts: [][]byte{{1, 0, 4}}}))
	f.Add(obs.AppendWireSpans(nil, nil)) // untraced: the empty section
	f.Add([]byte{0xFF, 0xFF})            // hostile span count

	f.Fuzz(func(t *testing.T, data []byte) {
		if qs, h, err := decodeBatchRequest(data); err == nil {
			re, err := encodeBatchRequest(qs, h)
			if err != nil {
				t.Fatalf("re-encode of a decoded batch failed: %v", err)
			}
			qs2, h2, err := decodeBatchRequest(re)
			if err != nil {
				t.Fatalf("decode of a re-encoded batch failed: %v", err)
			}
			if !reflect.DeepEqual(h2, h) || (!h.traced && (h.traceID != 0 || h.span != 0)) {
				t.Fatalf("batch header drifted: %+v then %+v", h, h2)
			}
			if len(qs2) != len(qs) {
				t.Fatalf("batch round trip drifted: %d then %d queries", len(qs), len(qs2))
			}
			for i := range qs {
				if qs2[i].Class != qs[i].Class || qs2[i].S != qs[i].S ||
					qs2[i].T != qs[i].T || qs2[i].L != qs[i].L {
					t.Fatalf("query %d drifted: %+v -> %+v", i, qs[i], qs2[i])
				}
			}
		}
		if rep, err := decodeBatchReply(data); err == nil {
			rep2, err := decodeBatchReply(encodeBatchReply(nil, rep))
			if err != nil {
				t.Fatalf("reply re-encode round trip failed: %v", err)
			}
			if rep2.hasRows != rep.hasRows || rep2.tag != rep.tag || !bytes.Equal(rep2.rows, rep.rows) ||
				!slices.Equal(rep2.stale, rep.stale) || !slices.Equal(rep2.owners, rep.owners) || len(rep2.parts) != len(rep.parts) {
				t.Fatalf("reply round trip drifted: %+v then %+v", rep, rep2)
			}
			for i := range rep.parts {
				if !bytes.Equal(rep.parts[i], rep2.parts[i]) {
					t.Fatalf("reply part %d drifted", i)
				}
			}
			// The coordinator decodes the rows section and every reach or
			// distance part once and keeps the equations: whatever decodes
			// must be exactly what the bytes said.
			sections := rep.parts
			if rep.hasRows {
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
			}
		}
		if spans, body, err := obs.DecodeWireSpans(data); err == nil {
			spans2, body2, err := obs.DecodeWireSpans(append(obs.AppendWireSpans(nil, spans), body...))
			if err != nil {
				t.Fatalf("decode of a re-encoded span section failed: %v", err)
			}
			if len(spans2) != len(spans) || !bytes.Equal(body2, body) {
				t.Fatalf("query answer drifted: %d spans/%d body bytes then %d/%d",
					len(spans), len(body), len(spans2), len(body2))
			}
			for i := range spans {
				if spans2[i].Name != spans[i].Name || spans2[i].Parent != spans[i].Parent ||
					spans2[i].DurNs != spans[i].DurNs || len(spans2[i].Attrs) != len(spans[i].Attrs) {
					t.Fatalf("span %d drifted: %+v -> %+v", i, spans[i], spans2[i])
				}
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
	f.Add([]byte{updateVersion, 0xFF, 0xFF, 0xFF, 0x7F})                        // hostile op count
	f.Add([]byte{updateVersion, 1, 0xFF, 0xFF, 0xFF, 0x7F})                     // hostile dirty count
	f.Add(append(mixed[:len(mixed)-2], 0xFF))                                   // truncated op
	f.Add([]byte{'i', 1, 0, 0, 0, 2, 0, 0, 0})                                  // legacy v1 single-edge frame
	f.Add([]byte{2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'i'})                   // legacy v2 frame
	f.Add([]byte{updateVersion, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'n', 0xFF}) // truncated node op
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
	f.Add([]byte{syncReplay, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile record count
	f.Add(rep[:len(rep)-3])                           // truncated record
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
