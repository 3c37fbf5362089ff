package netsite

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/graph"
	"distreach/internal/oplog"
)

// The query frame ('B') carries one or more mixed-class queries in one
// payload, and each site answers with a single final frame carrying one
// partial answer per query. The per-query visit guarantee thus becomes a
// per-batch guarantee over real connections: k queries over n sites cost
// 2n frames, independent of k. A single query is a batch of one.
//
// Request payload (little-endian):
//
//	version u8 | flags u8 | [trace ID u64 | parent span ID u64] | count u32
//	| per query:
//	  class u8 ('r'|'b'|'q') | s u32 | t u32
//	  class 'b' adds: l u32
//	  class 'q' adds: alen u32 | automaton bytes
//
// flags carries batchFlagStream — the coordinator invites the site to emit
// 'P' frames, per-target equation chunks (see encodeBatchChunk), ahead of
// the final reply, enabling anytime early termination — and batchFlagTrace:
// the bracketed trace context is present and the site records spans for
// the reply's span section.
//
// Reply payload, after the (epoch, lsn) tag and the span section every
// query answer carries (see protocol.go):
//
//	version u8 | nshared u32 | per section: slen u32 | bytes
//	           | count u32 | per query: sref u32 | plen u32 | partial bytes
//
// The shared sections deduplicate the reply: reach queries sharing a
// target share their in-node equations (they are independent of the
// source), so the site ships that rvset once as a section and each query
// references it by sref (1+index; 0 means no section) alongside its own
// source equation. However many sources ask about one target, the shared
// equations cross the wire once — mirroring the site already computing
// them once.
//
// Both codecs are hardened against hostile input (fuzzed): every count and
// length is bounds-checked against the remaining buffer and trailing bytes
// are rejected, so a corrupt or adversarial payload yields an error, never
// a panic or an over-allocation.

// QueryClass tags one query in a wire batch with its query class.
type QueryClass byte

// The three query classes of the paper.
const (
	ClassReach QueryClass = 'r' // qr(s,t)
	ClassDist  QueryClass = 'b' // qbr(s,t,l)
	ClassRPQ   QueryClass = 'q' // qrr(s,t,R)
)

// BatchQuery is one query in a wire batch.
type BatchQuery struct {
	Class QueryClass
	S, T  graph.NodeID
	L     int                  // distance bound; ClassDist only
	A     *automaton.Automaton // query automaton; ClassRPQ only
}

// BatchAnswer is one query's answer within a batch. Dist is meaningful for
// ClassDist only: the exact distance when Answer is true, bes.Inf
// otherwise (mirroring Coordinator.ReachWithin). Touched mirrors
// WireStats.Touched per query: the sites whose partials the answer
// depends on (nil for locally short-circuited queries).
type BatchAnswer struct {
	Answer  bool
	Dist    int64
	Touched []int
}

// batchVersion versions the query payload codecs independently of the
// frame layout. Version 2 added the shared per-target sections to the
// reply; version 3 added the request flags byte; version 4 moved the trace
// context into the request header and made this the only query frame.
const batchVersion = 4

// Request flag bits. batchFlagStream asks the site to stream per-target
// equation chunks as 'P' frames ahead of the final reply; batchFlagTrace
// says 16 bytes of trace context follow the flags and asks the site to
// record spans.
const (
	batchFlagStream = 1
	batchFlagTrace  = 2
)

// batchHeader is the decoded head of a query request: what the flags byte
// says, plus the trace context when traced. The site never interprets the
// two IDs — its spans hang off the coordinator's rpc span implicitly — but
// they make a captured frame attributable to its trace.
type batchHeader struct {
	stream, traced bool
	traceID, span  uint64
}

// maxBatch bounds the declared per-payload query count against hostile
// length prefixes; real batches are orders of magnitude smaller.
const maxBatch = 1 << 20

// readVersion checks a payload's leading version byte; what names the
// codec in the error.
func readVersion(r *oplog.Cursor, want byte, what string) error {
	v, err := r.U8()
	if err != nil {
		return err
	}
	if v != want {
		return fmt.Errorf("netsite: unsupported %s version %d", what, v)
	}
	return nil
}

// readCount decodes an item count, guarding it: each item occupies at
// least min bytes of the remaining buffer.
func readCount(r *oplog.Cursor, min int) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if n > maxBatch || uint64(n)*uint64(min) > uint64(r.Remaining()) {
		return 0, fmt.Errorf("netsite: implausible count %d with %d bytes left", n, r.Remaining())
	}
	return int(n), nil
}

// readBlob decodes a length-prefixed byte section (a view, not a copy).
func readBlob(r *oplog.Cursor) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.Bytes(n)
}

// encodeBatchRequest packs a mixed-class query batch into one payload.
func encodeBatchRequest(qs []BatchQuery, h batchHeader) ([]byte, error) {
	b := []byte{batchVersion, 0}
	if h.stream {
		b[1] |= batchFlagStream
	}
	if h.traced {
		b[1] |= batchFlagTrace
		b = binary.LittleEndian.AppendUint64(b, h.traceID)
		b = binary.LittleEndian.AppendUint64(b, h.span)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(qs)))
	for i, q := range qs {
		b = append(b, byte(q.Class))
		b = binary.LittleEndian.AppendUint32(b, uint32(q.S))
		b = binary.LittleEndian.AppendUint32(b, uint32(q.T))
		switch q.Class {
		case ClassReach:
		case ClassDist:
			b = binary.LittleEndian.AppendUint32(b, uint32(q.L))
		case ClassRPQ:
			if q.A == nil {
				return nil, fmt.Errorf("netsite: batch query %d: nil automaton", i)
			}
			ab, err := q.A.MarshalBinary()
			if err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(len(ab)))
			b = append(b, ab...)
		default:
			return nil, fmt.Errorf("netsite: batch query %d: unknown class %q", i, byte(q.Class))
		}
	}
	return b, nil
}

// spanOffset is where the parent span ID sits in a traced request payload
// (version, flags, trace ID): the one field that differs per site, patched
// into a copy of the shared payload.
const spanOffset = 2 + 8

// decodeBatchRequest is the inverse of encodeBatchRequest. Unknown flag
// bits are rejected so the codec stays an identity under fuzzing.
func decodeBatchRequest(p []byte) ([]BatchQuery, batchHeader, error) {
	var h batchHeader
	r := oplog.NewCursor(p)
	if err := readVersion(r, batchVersion, "batch"); err != nil {
		return nil, h, err
	}
	flags, err := r.U8()
	if err != nil {
		return nil, h, err
	}
	if flags&^byte(batchFlagStream|batchFlagTrace) != 0 {
		return nil, h, fmt.Errorf("netsite: unknown batch flags %#x", flags)
	}
	h.stream = flags&batchFlagStream != 0
	if h.traced = flags&batchFlagTrace != 0; h.traced {
		if h.traceID, err = r.U64(); err != nil {
			return nil, h, err
		}
		if h.span, err = r.U64(); err != nil {
			return nil, h, err
		}
	}
	n, err := readCount(r, 9) // class + s + t at minimum
	if err != nil {
		return nil, h, err
	}
	qs := make([]BatchQuery, 0, n)
	for i := 0; i < n; i++ {
		cls, err := r.U8()
		if err != nil {
			return nil, h, err
		}
		s, err := r.U32()
		if err != nil {
			return nil, h, err
		}
		t, err := r.U32()
		if err != nil {
			return nil, h, err
		}
		q := BatchQuery{Class: QueryClass(cls), S: graph.NodeID(s), T: graph.NodeID(t)}
		switch q.Class {
		case ClassReach:
		case ClassDist:
			l, err := r.U32()
			if err != nil {
				return nil, h, err
			}
			q.L = int(l)
		case ClassRPQ:
			ab, err := readBlob(r)
			if err != nil {
				return nil, h, err
			}
			q.A = new(automaton.Automaton)
			if err := q.A.UnmarshalBinary(ab); err != nil {
				return nil, h, fmt.Errorf("netsite: batch query %d: %w", i, err)
			}
		default:
			return nil, h, fmt.Errorf("netsite: batch query %d: unknown class %q", i, cls)
		}
		qs = append(qs, q)
	}
	if err := r.Done(); err != nil {
		return nil, h, err
	}
	return qs, h, nil
}

// encodeBatchReply appends to b (a query answer's span section) the shared
// per-target sections plus, per batched query, a section reference (0 =
// none, else 1+index) and the query's own marshaled partial (empty when
// the shared section says it all).
func encodeBatchReply(b []byte, shared [][]byte, refs []uint32, parts [][]byte) []byte {
	size := 1 + 4 + 4 // version, section count, query count
	for _, s := range shared {
		size += 4 + len(s)
	}
	for _, p := range parts {
		size += 8 + len(p)
	}
	b = append(slices.Grow(b, size), batchVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shared)))
	for _, s := range shared {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(parts)))
	for i, p := range parts {
		b = binary.LittleEndian.AppendUint32(b, refs[i])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// decodeBatchReply is the inverse of encodeBatchReply. Every count, length
// and section reference is validated.
func decodeBatchReply(p []byte) (shared [][]byte, refs []uint32, parts [][]byte, err error) {
	r := oplog.NewCursor(p)
	if err := readVersion(r, batchVersion, "batch"); err != nil {
		return nil, nil, nil, err
	}
	ns, err := readCount(r, 4) // a length prefix per section at minimum
	if err != nil {
		return nil, nil, nil, err
	}
	shared = make([][]byte, 0, ns)
	for i := 0; i < ns; i++ {
		s, err := readBlob(r)
		if err != nil {
			return nil, nil, nil, err
		}
		shared = append(shared, s)
	}
	n, err := readCount(r, 8) // sref + plen at minimum
	if err != nil {
		return nil, nil, nil, err
	}
	refs = make([]uint32, 0, n)
	parts = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		ref, err := r.U32()
		if err != nil {
			return nil, nil, nil, err
		}
		if ref > uint32(len(shared)) {
			return nil, nil, nil, fmt.Errorf("netsite: batch reply query %d references section %d of %d", i, ref, len(shared))
		}
		part, err := readBlob(r)
		if err != nil {
			return nil, nil, nil, err
		}
		refs = append(refs, ref)
		parts = append(parts, part)
	}
	if err := r.Done(); err != nil {
		return nil, nil, nil, err
	}
	return shared, refs, parts, nil
}

// Batch evaluates a mixed-class query batch in one wire round: exactly one
// request frame per site carries the whole batch, each site evaluates it
// against its fragment in one pass and answers with one final frame
// carrying a partial per query, and the coordinator demultiplexes and
// solves each query from its partials. The returned WireStats covers the
// whole batch: FramesSent equals the site count — independent of len(qs) —
// which is the per-batch form of the paper's visit bound.
//
// This is the only query path: Reach, ReachWithin and ReachRegex are
// batches of one. With anytime on and every wire query a reach query, the
// round streams partial replies and returns the moment they prove every
// query true, cancelling the remaining sites; otherwise it waits for every
// site's final frame (see SetAnytime).
//
// Queries that short-circuit locally (s == t, or a non-positive distance
// bound) are answered without touching the wire; a batch of only such
// queries sends zero frames. Concurrent batches multiplex over the same
// connections.
func (c *Coordinator) Batch(qs []BatchQuery) ([]BatchAnswer, WireStats, error) {
	return c.BatchContext(context.Background(), qs)
}

// BatchContext is Batch honoring a context deadline or cancellation.
func (c *Coordinator) BatchContext(ctx context.Context, qs []BatchQuery) ([]BatchAnswer, WireStats, error) {
	answers := make([]BatchAnswer, len(qs))
	wire := make([]BatchQuery, 0, len(qs))
	widx := make([]int, 0, len(qs))
	for i, q := range qs {
		switch q.Class {
		case ClassReach:
			if q.S == q.T {
				answers[i] = BatchAnswer{Answer: true}
				continue
			}
		case ClassDist:
			if q.S == q.T {
				answers[i] = BatchAnswer{Answer: q.L >= 0, Dist: 0}
				continue
			}
			if q.L <= 0 {
				answers[i] = BatchAnswer{Answer: false, Dist: bes.Inf}
				continue
			}
		case ClassRPQ:
			if q.A == nil {
				return nil, WireStats{}, fmt.Errorf("netsite: batch query %d: nil automaton", i)
			}
			if q.S == q.T && q.A.AcceptsLabels(nil) {
				answers[i] = BatchAnswer{Answer: true}
				continue
			}
		default:
			return nil, WireStats{}, fmt.Errorf("netsite: batch query %d: unknown class %q", i, byte(q.Class))
		}
		wire = append(wire, q)
		widx = append(widx, i)
	}
	if len(wire) == 0 {
		return answers, WireStats{}, nil
	}
	// Strict mode is a policy of the one round, not another round: the
	// stream flag stays off, and with it early decision — every final is
	// waited out. The flag is computed, not chosen: anytime on and every
	// wire query a reach query (distance and regex partials have no
	// incremental solver, so such a round could never be decided early).
	name := "batch"
	h := batchHeader{stream: c.anytime.Load()}
	for _, q := range wire {
		h.stream = h.stream && q.Class == ClassReach
	}
	if len(wire) == 1 {
		name = classLabel(wire[0].Class)
	}
	qt := c.newQueryTrace(name)
	if qt != nil {
		h.traced, h.traceID = true, qt.id
	}
	sol := &batchSolver{wire: wire, nsites: len(c.conns), early: h.stream}
	var st WireStats
	payload, err := encodeBatchRequest(wire, h)
	if err == nil {
		st, err = c.streamRound(ctx, payload, h.stream, sol, qt)
	}
	if err == nil {
		solveStart := time.Now()
		if err = sol.finish(widx, answers); err == nil && qt != nil {
			qt.b.AddSpan(qt.b.Root(), "solve", solveStart, time.Since(solveStart))
		}
	}
	c.finishTrace(qt, &st, err)
	if err != nil {
		return nil, st, err
	}
	return answers, st, nil
}

// classLabel names a query class for trace roots.
func classLabel(c QueryClass) string {
	switch c {
	case ClassReach:
		return "reach"
	case ClassDist:
		return "dist"
	default:
		return "rpq"
	}
}

// batchSolver turns one round attempt's reply frames into answers. Reach
// queries are fed, frame by frame, into one incremental equation system
// per distinct target (bes.Add keeps the least solution up to date,
// bes.Decide is O(1)): every equation is decoded and added exactly once,
// whether the round ends early or runs to completion. A positive
// certificate is a closed chain of equations, each a sound implication at
// the round's (epoch, LSN), so no absent site can retract it; proving
// false requires every site's complete equations, i.e. all final frames.
// Distance and regex parts have no incremental solver: their bytes are
// kept per site and solved once, in finish, when the last final is in.
type batchSolver struct {
	wire   []BatchQuery
	nsites int
	early  bool // streaming round: report it decided once every query is proved

	sys   map[graph.NodeID]*bes.System[graph.NodeID] // per reach target: answers and Touched sets
	parts [][][]byte                                 // per site, per query: dist/rpq partial bytes
}

// reset discards everything fed so far; streamRound calls it before each
// attempt, so equations only ever accumulate from one deployment state.
func (b *batchSolver) reset() {
	b.sys = make(map[graph.NodeID]*bes.System[graph.NodeID])
	for _, q := range b.wire {
		if _, ok := b.sys[q.T]; !ok && q.Class == ClassReach {
			b.sys[q.T] = bes.New[graph.NodeID]()
		}
	}
	b.parts = make([][][]byte, b.nsites)
}

// addReach decodes one marshaled equation set for target t and feeds it to
// t's system as site's contribution. Re-adding a streamed prefix is sound:
// disjunctive systems are idempotent under Add.
func (b *batchSolver) addReach(t graph.NodeID, site int, data []byte) error {
	rv := new(core.ReachPartial)
	if err := rv.UnmarshalBinary(data); err != nil {
		return err
	}
	rv.AddToSystemFrom(site, b.sys[t])
	return nil
}

// feed consumes one reply body — a 'P' chunk or a site's final — and
// reports whether every query of the round is now decided.
func (b *batchSolver) feed(site int, body []byte, final bool) (bool, error) {
	if !final {
		t, eqs, err := decodeBatchChunk(body)
		if err != nil {
			return false, fmt.Errorf("netsite: site %d partial: %w", site, err)
		}
		if b.sys[t] == nil {
			return false, nil // chunk for a target we never asked about
		}
		if err := b.addReach(t, site, eqs); err != nil {
			return false, fmt.Errorf("netsite: site %d partial: %w", site, err)
		}
	} else {
		shared, refs, parts, err := decodeBatchReply(body)
		if err != nil {
			return false, fmt.Errorf("netsite: site %d reply: %w", site, err)
		}
		if len(parts) != len(b.wire) {
			return false, fmt.Errorf("netsite: site %d answered %d of %d batch queries", site, len(parts), len(b.wire))
		}
		b.parts[site] = parts
		// Each shared section belongs to exactly one target; feed it once
		// however many queries reference it.
		fed := make([]bool, len(shared))
		for j, q := range b.wire {
			if q.Class != ClassReach {
				continue
			}
			if ref := refs[j]; ref > 0 && !fed[ref-1] {
				fed[ref-1] = true
				if err := b.addReach(q.T, site, shared[ref-1]); err != nil {
					return false, fmt.Errorf("netsite: site %d shared section %d: %w", site, ref-1, err)
				}
			}
			if len(parts[j]) > 0 {
				if err := b.addReach(q.T, site, parts[j]); err != nil {
					return false, fmt.Errorf("netsite: site %d batch query %d: %w", site, j, err)
				}
			}
		}
	}
	if !b.early {
		return false, nil
	}
	// An early round is all reach queries (see BatchContext), each an O(1)
	// lookup in its target's system.
	for _, q := range b.wire {
		if !b.sys[q.T].Decide(q.S) {
			return false, nil
		}
	}
	return true, nil
}

// finish writes every wire query's answer into its slot once the round
// has settled. Touched stays sound for a reach query proved early:
// flipping the answer to false requires breaking every path, in particular
// the certificate chain inside the accumulated equations — whose fragments
// are in the dependency closure the target's system reports.
func (b *batchSolver) finish(widx []int, answers []BatchAnswer) error {
	for j, q := range b.wire {
		i := widx[j]
		switch q.Class {
		case ClassReach:
			answers[i] = BatchAnswer{Answer: b.sys[q.T].Decide(q.S), Touched: b.sys[q.T].Sources(q.S)}
		case ClassDist:
			partials := make([]*core.DistPartial, b.nsites)
			for site := range partials {
				partials[site] = new(core.DistPartial)
				if err := partials[site].UnmarshalBinary(b.parts[site][j]); err != nil {
					return fmt.Errorf("netsite: site %d batch query %d: %w", site, i, err)
				}
			}
			d, touched := core.AssembleDist(partials, q.S)
			answers[i] = BatchAnswer{Answer: d <= int64(q.L), Dist: d, Touched: touched}
		case ClassRPQ:
			partials := make([]*core.RPQPartial, b.nsites)
			for site := range partials {
				partials[site] = new(core.RPQPartial)
				if err := partials[site].UnmarshalBinary(b.parts[site][j]); err != nil {
					return fmt.Errorf("netsite: site %d batch query %d: %w", site, i, err)
				}
			}
			answers[i] = BatchAnswer{
				Answer:  core.SolveRPQ(partials, q.S, q.A),
				Touched: core.TouchedRPQ(partials, q.S, q.A.NumStates()),
			}
		}
	}
	return nil
}
