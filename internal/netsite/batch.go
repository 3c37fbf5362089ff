package netsite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/codec"
	"distreach/internal/core"
	"distreach/internal/graph"
	"distreach/internal/obs"
)

// The query frame ('B') carries one or more mixed-class queries in one
// payload, and each posted site answers with a single frame carrying one
// partial answer per query. The per-query visit guarantee thus becomes a
// per-batch guarantee over real connections: k queries cost one request
// and one reply per posted site, independent of k, and no site is posted
// twice in one attempt. A single query is a batch of one.
//
// Request payload (internal/codec: the instance and trace IDs fixed
// little-endian u64s, every other integer a shortest-form uvarint):
//
//	head:   flags u8 | instance u64
//	        | generation+1 uvarint (0: no rows held)
//	        | [trace ID u64 | parent span ID uvarint]
//	shared: count uvarint
//	        | per query:
//	          class u8 ('r'|'b'|'q') | s uvarint | t uvarint (<= i32)
//	          class 'b' adds: l uvarint (<= u32)
//	          class 'q' adds: alen uvarint | automaton bytes
//	        | [skip section: n uvarint (>= 1)
//	          | per skipped site, ascending: site uvarint | generation uvarint]
//
// flags carries batchFlagTrace: the bracketed trace context is present and
// the site records spans for the reply's span section. The head is each
// site's own: (instance, generation) is the rows tag naming the copy of
// this site's boundary rows the coordinator holds, and the parent span the
// site's rpc span. The shared section is encoded once per round, and each
// posted site's frame is its head followed by those bytes. The skip
// section, present only when the attempt leaves sites out, names the rows
// the coordinator holds for each of them (see Routing below); the
// fragmentation instance it stands on is the head's, which routing only
// skips under when every held tag names it — also when the coordinator
// holds no rows for the receiving site itself.
//
// Reply payload, after the (epoch, lsn) tag and the span section every
// query answer carries (see protocol.go):
//
//	rows u8 (0: none | 1: full | 2: delta)
//	  | full:  instance u64 | generation uvarint | rlen uvarint | rows
//	  | delta: generation uvarint | rlen uvarint | changed rows
//	         | ndrop uvarint | per dropped head, ascending: node (delta)
//	  | nstale uvarint | per stale skipped site: site uvarint
//	  | nowners uvarint | per reach or distance query, in batch
//	    order: owner(s)+1 uvarint | owner(t)+1 uvarint (0: none)
//	  | count uvarint | per query: plen uvarint | partial (core.Rows)
//
// Neither payload carries a version: the connection preamble is the
// protocol's only one (protocol.go).
//
// Every partial is a core.Rows list, the layout of the rows section too —
// unweighted for reach and regex, weighted for distance — and an empty
// partial says nothing. A regex query's partial is its product rows
// (core.LocalEvalRPQ): one equation per (in-node or stored s, automaton
// state) entry that says something, headed v·|Vq| + u, heads ascending.
//
// Boundary rows. A fragment's answer to qr(s, t) and to qbr(s, t, l) is its
// weighted in-node rows — for every in-node v, the boundary nodes b it
// reaches locally with no other boundary node in between, each with that
// distance d: Xv <= Xb + d, O(|Vf|²) terms that depend on the fragment
// alone (core.LocalRows) — plus a query part that is small. For qr: s's
// own equation when the site stores s as a non-in-node
// (core.SourceOnlyReach), and Xv = true for the in-nodes that reach t where
// the site stores t (core.TargetOnlyReach; shipped with the first query of
// the batch that names t), without weights. For qbr: the same two,
// weighted and cut at l (core.DistQueryPart). The coordinator decodes
// every part once, as the reply arrives, and refuses a distance part
// without weights and a regex part with heads out of order. It keeps each
// site's rows, and the rows section is there only when the tag in the
// request is not the fragment's current (Fragmentation.Instance,
// Fragment.Generation), read under the read lock the evaluation holds: the
// site then ships the rows once for the whole batch, however many queries
// and distinct targets it carries, and the coordinator replaces its copy. A
// reach or distance query's partial is its query part either way. A regex
// query's partial is complete on its own (an automaton is drawn per query,
// so product rows would rarely be reused), but the walk over it reads the
// owner of a node it reaches without an equation off the rows, whose heads
// are each fragment's in-nodes: a batch with a regex query is a rows round
// — but one of regex queries alone ships none to a coordinator with none.
//
// Row deltas. A write changes a handful of a fragment's equations, not its
// O(|Vf|²) rows, so when the request's tag names an earlier generation of
// the fragment's own instance and the site still keeps its rows at that
// tag (it keeps the newest two states it computed, rowsMemo), it ships a
// delta against them instead: the equations whose head is new or whose
// terms changed, as a weighted core.Rows list with heads ascending, and the
// heads that are gone (core.Diff). Its base is the request's own tag, so
// the reply names only the new generation. The coordinator patches the
// copy the attempt stands on — the one whose tag the request carried —
// into the rows at the new tag (core.Patch) and keeps them as it keeps
// shipped rows. A site that keeps no rows at the request's tag (a
// rebalance, snapshot install or restart drew a new instance, or the copy
// aged out of its memo) ships full rows, and a request that names no rows
// gets full rows too. The site computes core.LocalRows once per state of
// its fragment, however many rounds in flight ask for it.
//
// Why a match is safe: every mutation of a fragment — sequenced batch,
// unsequenced apply, direct call on the Fragmentation under the site — runs
// through fragment.Apply, which bumps the generation of each fragment it
// dirties under the write lock, and every replacement of the fragmentation
// (rebalance, snapshot install, site restart) draws a new instance ID. Equal
// tags therefore mean the rows the coordinator holds are the rows the site
// would compute now, at the (epoch, LSN) its reply is stamped with. Nothing
// has to tell the coordinator that its copy went stale, so nothing can be
// lost: a stale or missing copy costs one reply that ships rows — a delta
// or the full rows — never an answer.
//
// Why a patch is safe: core.LocalRows is a function of the fragment's nodes
// and edges alone — equations in node order, each one's terms in node
// order — so the rows the site keeps at the request's tag are, equation for
// equation, the rows the coordinator holds at that tag, whether it decoded
// them, patched them or reads them back from a boundary. The delta is the
// difference of those rows and the rows at the new tag, computed under the
// read lock the evaluation holds, so patching the held copy gives exactly
// the rows the site would ship in full, at the (epoch, LSN) its reply is
// stamped with (TestRowsDeltaPatch pins the equality byte for byte). A delta
// that cannot have been taken against the held copy — in reply to a
// request that named no rows, to a generation not past the held one, with
// heads out of order, or dropping a head the copy does not hold — fails the
// round with an error, never a wrong answer.
//
// Routing. Only the fragments that store s or t as a real node — owner(s)
// and owner(t) — have a query part for qr(s, t) or qbr(s, t, l)
// (TestNonOwnerQueryPartsEmpty), so any other site whose held rows are
// current would reply with nothing new. When every held tag names one
// fragmentation instance — the sites share one Replica, as the sites of
// ServeFragmentation do — and the coordinator knows the owner of every
// node of a batch of reach and distance queries, an attempt posts only to
// owner(s) ∪ owner(t) over its queries, plus every site whose rows it does
// not hold or knows stale (an update it acknowledged dirtied them), and the
// request's skip section carries the held generation of each site left
// out. A posted site evaluates on the same fragmentation as
// the skipped ones, so it reads their generations under the read lock its
// evaluation holds and names, in nstale, the ones whose rows moved (all of
// them when its instance is another). Every reply also names the owners of
// each reach and distance query's s and t, which is how the coordinator
// learns its node→site table (ownerTable) without the assignment ever
// crossing the wire. The first reply of the attempt vouches for the rest:
// the coordinator posts, in the same attempt and under the same request
// ID, to each skipped site that reply names stale or as an owner, and opens
// every other skipped site's held rows as if it had replied with nothing
// but a rows hit. Each site is posted at most once per attempt, so the
// paper's one visit per site still holds. A later reply that names a
// vouched site contradicts the first at the same (epoch, LSN) — only an
// unsequenced mutation can do that — and splits the attempt. Sites on
// separate replicas draw separate instances, cannot vouch for one another
// and are all posted, as are cold rounds, first-sight nodes and any batch
// with a regex query (every site may hold part of its product).
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
// ClassDist only: the exact distance when Answer is true, core.Inf
// otherwise (mirroring Coordinator.ReachWithin). Touched mirrors
// WireStats.Touched per query: the sites whose partials the answer
// depends on (nil for locally short-circuited queries).
type BatchAnswer struct {
	Answer  bool
	Dist    int64
	Touched []int
}

// Request flag bits. batchFlagTrace says the trace context follows the
// rows tag and asks the site to record spans. Bit 1 is retired (it
// asked for streamed 'P' frames) and rejected like any unknown bit.
const batchFlagTrace = 2

// rowsTag names one state of one fragment's boundary rows: the instance ID
// of the fragmentation it belongs to and the fragment's generation. The
// zero tag is no rows at all (instance IDs are never zero).
type rowsTag struct {
	instance, gen uint64
}

// batchHeader is the decoded head of a query request — what the flags
// byte says, the fragmentation instance, whether the coordinator holds
// rows for the receiving site and at which generation, plus the trace
// context when traced — and its skip section. The site never interprets
// the two trace IDs — its spans hang off the coordinator's rpc span
// implicitly — but they make a captured frame attributable to its trace.
type batchHeader struct {
	traced        bool
	instance      uint64
	held          bool
	gen           uint64
	traceID, span uint64
	skip          skipList
}

// rows is the tag of the rows the coordinator holds for the receiving
// site; the zero tag when it holds none.
func (h batchHeader) rows() rowsTag {
	if !h.held {
		return rowsTag{}
	}
	return rowsTag{h.instance, h.gen}
}

// batchHeadMax bounds the encoded head of a query request.
const batchHeadMax = 1 + 8 + binary.MaxVarintLen64 + 8 + binary.MaxVarintLen64

// appendBatchHead appends the head of a query request: everything before
// the shared section.
func appendBatchHead(b []byte, h batchHeader) []byte {
	var flags byte
	if h.traced {
		flags = batchFlagTrace
	}
	b = codec.AppendU64(append(b, flags), h.instance)
	var held uint64
	if h.held {
		held = h.gen + 1
	}
	b = binary.AppendUvarint(b, held)
	if h.traced {
		b = codec.AppendU64(b, h.traceID)
		b = binary.AppendUvarint(b, h.span)
	}
	return b
}

// skipList is a request's skip section: the sites the attempt left out, in
// ascending order, each with the generation of the rows held for it. The
// zero value is no section.
type skipList struct {
	sites []int
	gens  []uint64
}

// appendSkip writes the skip section; nothing when no site was skipped.
func appendSkip(b []byte, sk skipList) []byte {
	if len(sk.sites) == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(sk.sites)))
	for i, site := range sk.sites {
		b = binary.AppendUvarint(b, uint64(site))
		b = binary.AppendUvarint(b, sk.gens[i])
	}
	return b
}

// readSkip decodes a skip section: at least one site, strictly ascending,
// each a plausible site index. A malformed one fails r.
func readSkip(r *codec.Reader) (sk skipList) {
	n := r.Count(2) // site + generation at minimum
	if n == 0 {
		r.Fail(errors.New("empty skip section"))
	}
	sk.sites, sk.gens = make([]int, n), make([]uint64, n)
	for i := range sk.sites {
		sk.sites[i] = int(r.Uint(maxSites - 1))
		if i > 0 && sk.sites[i] <= sk.sites[i-1] {
			r.Fail(errors.New("skip section sites out of order"))
		}
		sk.gens[i] = r.Uvarint()
	}
	return sk
}

// maxSites bounds a site index on the wire: the coordinator's owner table
// keeps a site plus one in 16 bits.
const maxSites = math.MaxUint16 - 1

// maxBatch bounds the declared per-payload query count against hostile
// length prefixes; real batches are orders of magnitude smaller.
const maxBatch = 1 << 20

// appendQueries appends the section of a query request every posted site
// shares, skip section aside: the count and the queries.
func appendQueries(b []byte, qs []BatchQuery) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for i, q := range qs {
		b = append(b, byte(q.Class))
		b = binary.AppendUvarint(b, uint64(q.S))
		b = binary.AppendUvarint(b, uint64(q.T))
		switch q.Class {
		case ClassReach:
		case ClassDist:
			b = binary.AppendUvarint(b, uint64(q.L))
		case ClassRPQ:
			if q.A == nil {
				return nil, fmt.Errorf("netsite: batch query %d: nil automaton", i)
			}
			ab, err := q.A.MarshalBinary()
			if err != nil {
				return nil, err
			}
			b = binary.AppendUvarint(b, uint64(len(ab)))
			b = append(b, ab...)
		default:
			return nil, fmt.Errorf("netsite: batch query %d: unknown class %q", i, byte(q.Class))
		}
	}
	return b, nil
}

// decodeBatchRequest decodes a query request: its head, its queries and
// its skip section. Unknown flag bits, and IDs and bounds the encoder
// could not have written, are rejected so the codec stays an identity
// under fuzzing.
func decodeBatchRequest(p []byte) ([]BatchQuery, batchHeader, error) {
	var h batchHeader
	r := codec.NewReader(p)
	flags := r.U8()
	if flags&^byte(batchFlagTrace) != 0 {
		r.Fail(fmt.Errorf("unknown flags %#x", flags))
	}
	h.instance = r.U64()
	if held := r.Uint(math.MaxUint64 - 1); held > 0 {
		h.held, h.gen = true, held-1
	}
	if h.traced = flags&batchFlagTrace != 0; h.traced {
		h.traceID, h.span = r.U64(), r.Uvarint()
	}
	n := r.Count(3) // class + s + t at minimum
	if n > maxBatch {
		r.Fail(fmt.Errorf("implausible batch of %d queries", n))
	}
	qs := make([]BatchQuery, 0, min(n, maxBatch))
	for i := 0; i < n && r.Err() == nil; i++ {
		q := BatchQuery{Class: QueryClass(r.U8())}
		q.S, q.T = graph.NodeID(r.Int31()), graph.NodeID(r.Int31())
		switch q.Class {
		case ClassReach:
		case ClassDist:
			q.L = int(r.Uint(math.MaxUint32))
		case ClassRPQ:
			q.A = new(automaton.Automaton)
			if err := q.A.UnmarshalBinary(r.Blob()); err != nil {
				r.Fail(fmt.Errorf("query %d: %w", i, err))
			}
		default:
			r.Fail(fmt.Errorf("query %d: unknown class %q", i, byte(q.Class)))
		}
		qs = append(qs, q)
	}
	if r.Remaining() > 0 {
		h.skip = readSkip(r)
	}
	if err := r.Done(); err != nil {
		return nil, h, fmt.Errorf("netsite: batch request: %w", err)
	}
	return qs, h, nil
}

// What a reply's rows section holds.
const (
	rowsNone  = 0 // nothing: the coordinator's copy is current, or the batch needs no rows
	rowsFull  = 1 // the fragment's rows
	rowsDelta = 2 // what changed since the request's tag
)

// batchReply is the decoded body of a query reply. rowsKind is rowsNone
// when the site shipped no rows (its fragment matches the request's tag,
// or the batch has no reach or distance query).
type batchReply struct {
	rowsKind byte
	tag      rowsTag        // full: the rows' tag; delta: its generation (the instance is the request's)
	rows     []byte         // full: the fragment's marshaled weighted in-node rows; delta: the changed ones
	dropped  []graph.NodeID // delta: the heads that are gone, ascending
	stale    []int          // the skipped sites whose held rows are not current
	owners   []int          // per reach or distance query: owner(s), owner(t) (-1: none)
	parts    [][]byte       // per batched query: its marshaled partial (empty: nothing to add)
}

// size bounds the reply's encoded size.
func (rep batchReply) size() int {
	const v = binary.MaxVarintLen32 // a count, length or site index
	n := 1 + 3*v + v*(len(rep.stale)+len(rep.owners))
	if rep.rowsKind != rowsNone {
		n += 8 + binary.MaxVarintLen64 + 2*v + len(rep.rows) + v*len(rep.dropped)
	}
	for _, p := range rep.parts {
		n += v + len(p)
	}
	return n
}

// encodeBatchReply appends the reply to b (the query answer's span section).
func encodeBatchReply(b []byte, rep batchReply) []byte {
	b = append(slices.Grow(b, rep.size()), rep.rowsKind)
	switch rep.rowsKind {
	case rowsFull:
		b = codec.AppendU64(b, rep.tag.instance)
		b = binary.AppendUvarint(b, rep.tag.gen)
		b = codec.AppendBlob(b, rep.rows)
	case rowsDelta:
		b = binary.AppendUvarint(b, rep.tag.gen)
		b = codec.AppendBlob(b, rep.rows)
		b = binary.AppendUvarint(b, uint64(len(rep.dropped)))
		var prev int64
		for _, v := range rep.dropped {
			b = codec.AppendNode(b, int32(v), &prev)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(rep.stale)))
	for _, site := range rep.stale {
		b = binary.AppendUvarint(b, uint64(site))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.owners)))
	for _, o := range rep.owners {
		b = binary.AppendUvarint(b, uint64(o+1))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.parts)))
	for _, p := range rep.parts {
		b = codec.AppendBlob(b, p)
	}
	return b
}

// decodeBatchReply is the inverse of encodeBatchReply. Every count and
// length is validated; the returned sections are views into p.
func decodeBatchReply(p []byte) (rep batchReply, err error) {
	r := codec.NewReader(p)
	switch rep.rowsKind = r.U8(); rep.rowsKind {
	case rowsNone:
	case rowsFull:
		rep.tag = rowsTag{instance: r.U64(), gen: r.Uvarint()}
		rep.rows = r.Blob()
	case rowsDelta:
		rep.tag.gen = r.Uvarint()
		rep.rows = r.Blob()
		rep.dropped = make([]graph.NodeID, r.Count(1))
		var prev int64
		for i := range rep.dropped {
			rep.dropped[i] = graph.NodeID(r.Node(&prev))
		}
	default:
		r.Fail(fmt.Errorf("unknown rows section %d", rep.rowsKind))
	}
	rep.stale = make([]int, r.Count(1))
	for i := range rep.stale {
		rep.stale[i] = int(r.Uint(maxSites - 1))
	}
	rep.owners = make([]int, r.Count(1))
	for i := range rep.owners {
		rep.owners[i] = int(r.Uint(maxSites-1)) - 1
	}
	rep.parts = make([][]byte, r.Count(1)) // a length prefix per query at minimum
	for i := range rep.parts {
		rep.parts[i] = r.Blob()
	}
	if err := r.Done(); err != nil {
		return batchReply{}, fmt.Errorf("netsite: batch reply: %w", err)
	}
	return rep, nil
}

// Batch evaluates a mixed-class query batch in one wire round: exactly one
// request frame to each posted site carries the whole batch, each posted
// site evaluates it against its fragment in one pass and answers with one
// frame carrying a partial per query, and the coordinator demultiplexes
// and solves each query from its partials. The returned WireStats covers
// the whole batch: FramesSent counts the posted sites — every site for a
// cold round, a round naming a node for the first time or one with a regex
// query; owner(s) ∪ owner(t) over the batch, plus any site whose held rows
// are missing or stale, for a warm one over sites sharing a replica (see
// Routing above) — independent of len(qs), and never more than the site
// count: the per-batch form of the paper's visit bound.
//
// This is the only query path: Reach, ReachWithin and ReachRegex are
// batches of one. With anytime on and every wire query a reach query, the
// round returns the moment the replies in hand prove every query true,
// without waiting for the remaining sites; otherwise it waits for every
// posted site's reply (see SetAnytime).
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
				answers[i] = BatchAnswer{Answer: false, Dist: core.Inf}
				continue
			}
			// The wire carries l in 32 bits. No path between 32-bit node
			// IDs is longer, so the clamp changes no answer.
			q.L = int(min(uint64(q.L), math.MaxUint32))
		case ClassRPQ:
			if q.A == nil {
				return nil, WireStats{}, fmt.Errorf("netsite: batch query %d: nil automaton", i)
			}
			if q.S == q.T && q.A.AcceptsLabels(nil) {
				answers[i] = BatchAnswer{Answer: true}
				continue
			}
			// Only a site knows |V|: refuse what s and t already overflow.
			if err := core.CheckRPQKeys(int(max(q.S, q.T))+1, q.A.NumStates()); err != nil {
				return nil, WireStats{}, fmt.Errorf("netsite: batch query %d: %w", i, err)
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
	// Strict mode is a policy of the one round, not another round: early
	// decision stays off and every reply is waited out. Early decision is
	// computed, not chosen (newBatchSolver).
	name := "batch"
	if len(wire) == 1 {
		name = classLabel(wire[0].Class)
	}
	qt := c.newQueryTrace(name)
	sol := newBatchSolver(c, wire, c.anytime.Load())
	var st WireStats
	queries, err := appendQueries(nil, wire)
	if err == nil {
		st, err = c.queryRound(ctx, queries, sol, qt)
	}
	if err == nil {
		solveStart := time.Now()
		if err = sol.finish(widx, answers); err == nil && qt != nil {
			use := "reused"
			if sol.built {
				use = "built"
			}
			qt.b.AddSpan(qt.b.Root(), "solve", solveStart, time.Since(solveStart), obs.Attr{Key: "boundary", Val: use})
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

// siteRows is one site's boundary rows as the coordinator keeps them: the
// in-node equations of its fragment and the tag of the fragment state they
// were computed at. Immutable once stored.
type siteRows struct {
	tag   rowsTag
	rv    *core.Rows // the rows as decoded off the wire, or patched
	in    *boundary  // or: the published boundary that lays them out
	stale bool       // known to be older than the fragment (markStale)
}

// source reads site's rows back, wherever they are kept.
func (r *siteRows) source(site int) core.Equations {
	if r.in != nil {
		return r.in.rowsOf(site)
	}
	return r.rv
}

// keepRows stores rows a site shipped in its cache slot, unless the slot
// holds a later generation of the same fragmentation instance: a round
// pinned at an older LSN must not roll a newer copy back. A different
// instance always replaces (instances are not ordered).
func (c *Coordinator) keepRows(site int, r *siteRows) {
	for {
		cur := c.rows[site].Load()
		if cur != nil && cur.tag.instance == r.tag.instance && cur.tag.gen >= r.tag.gen {
			return
		}
		if c.rows[site].CompareAndSwap(cur, r) {
			return
		}
	}
}

// heldTags snapshots the tag of every cache slot (zero: empty).
func (c *Coordinator) heldTags() []rowsTag {
	tags := make([]rowsTag, len(c.rows))
	for i := range c.rows {
		if r := c.rows[i].Load(); r != nil {
			tags[i] = r.tag
		}
	}
	return tags
}

// markStale marks the rows the cache holds for the given sites — the
// fragments an update acknowledged through this coordinator dirtied — as
// known stale, when the slot still holds the rows it held before the
// update (before[i], from heldTags). The next round then posts to those
// sites up front rather than learn from another site's reply that they are
// stale and post to them a second time. The rows stay in the slot, so
// rounds keep walking the published boundary until the new rows arrive
// instead of building one without the site. A slot a concurrent round has
// refilled since is left alone: its rows may already be the new ones, and
// a stale copy costs a second wave, never an answer.
func (c *Coordinator) markStale(sites []int, before []rowsTag) {
	for _, i := range sites {
		for {
			cur := c.rows[i].Load()
			if cur == nil || cur.stale || cur.tag != before[i] {
				break
			}
			marked := *cur
			marked.stale = true
			if c.rows[i].CompareAndSwap(cur, &marked) {
				break
			}
		}
	}
}

// publish makes bnd the boundary rounds reuse when it lays out the rows
// the cache holds now — the ones the next round's requests will name — and
// then points those cache entries at it, so that the coordinator keeps one
// copy of the rows, not the decoded copies beside their layout. A boundary
// with shared nodes keeps the entries as they are: it cannot give one
// site's rows back on their own.
func (c *Coordinator) publish(bnd *boundary) {
	cached := make([]*siteRows, len(c.rows))
	for i := range c.rows {
		cached[i] = c.rows[i].Load()
	}
	if !bnd.holds(cached) {
		return
	}
	c.bnd.Store(bnd)
	if bnd.shared != nil {
		return
	}
	for i, cur := range cached {
		if cur != nil && cur.in != bnd {
			c.rows[i].CompareAndSwap(cur, &siteRows{tag: cur.tag, in: bnd, stale: cur.stale})
		}
	}
}

// batchSolver turns one round attempt's replies into answers. A reach query
// is a probe (boundary.go): a walk from s over the boundary of the rows the
// attempt stands on, following the rows of the sites that have replied or
// been vouched for and the query parts the replies sent. With early
// decision on, every reply opens its site's rows (the first also the
// vouched sites') and the walks resume at once, so the round is decided
// the moment every walk has met a true equation; a walk's true is a closed
// chain of equations, each a sound implication at the round's (epoch,
// LSN), so no absent site can retract it, while false needs every site's
// equations, i.e. all replies and vouches. Strict rounds walk once, when
// the last site is in.
// Either way a round costs one closure walk per query. A distance query is
// one search over the same boundary, in finish, once every reply is in (a
// silent site may hold a shorter path); a regex query is one walk over its
// product rows (core.WalkRPQ), in finish too, which reads node owners off
// the boundary.
type batchSolver struct {
	c          *Coordinator // the rows cache, the published boundary, the build count
	wire       []BatchQuery
	needRows   bool  // a reach or distance query among them: every reply ships or confirms the rows
	rowsBacked bool  // no regex query among them: a rows-free reply is O(|Vf|) per query
	early      bool  // report the round decided once every query is proved
	target     []int // per wire query: its target's index among the reach targets (-1: not reach)
	targets    int

	// Per attempt. held[i] is the copy of site i's rows the attempt stands
	// on: the one whose tag the request carried (nil: none) — captured at
	// post time, so the round never swaps in a copy a concurrent round
	// stored later, whose tag the site did not compare — until a reply
	// ships a newer one. Rows join the walks only once site i's reply says,
	// at the round's pinned state, that they are its rows.
	qt     *qtrace // the attempt's trace (nil: untraced); queryRound sets it
	held   []*siteRows
	rows   []obs.RowsOutcome // what each site's reply did about its rows
	qparts [][]*core.Rows    // per site, per query: its decoded partial (nil: none)
	fed    []int             // the sites whose replies are in, in arrival order
	built  bool              // the attempt built a boundary rather than reuse one

	// Derived by sync from held and fed.
	bnd    *boundary
	eqs    []*targetEqs // per reach target
	probes []*probe     // per reach query, in wire order
	opened int          // fed[:opened] are open in the probes
}

// newBatchSolver prepares the solver of one batch; early decision applies
// when anytime is on and every query is a reach query (a distance needs
// every site's rows, and a regex walk every site's product rows, so such a
// round could never be decided early).
func newBatchSolver(c *Coordinator, wire []BatchQuery, anytime bool) *batchSolver {
	b := &batchSolver{c: c, wire: wire, rowsBacked: true, target: make([]int, len(wire))}
	index := make(map[graph.NodeID]int)
	allReach := true
	for j, q := range wire {
		b.target[j] = -1
		switch q.Class {
		case ClassDist:
			b.needRows, allReach = true, false
			continue
		case ClassRPQ:
			b.rowsBacked, allReach = false, false
			continue
		}
		b.needRows = true
		ti, ok := index[q.T]
		if !ok {
			ti = len(index)
			index[q.T] = ti
		}
		b.target[j] = ti
	}
	b.targets = len(index)
	b.early = anytime && allReach
	return b
}

// reset discards everything fed so far; queryRound calls it before each
// attempt, so equations only ever accumulate from one deployment state.
func (b *batchSolver) reset() {
	k := len(b.c.rows)
	b.held = make([]*siteRows, k)
	b.rows = make([]obs.RowsOutcome, k)
	b.qparts = make([][]*core.Rows, k)
	b.fed = b.fed[:0]
	b.built = false
	b.eqs, b.probes, b.opened = nil, nil, 0
}

// feed consumes one posted site's decoded reply.
func (b *batchSolver) feed(site int, rep batchReply) error {
	if len(rep.parts) != len(b.wire) {
		return fmt.Errorf("netsite: site %d answered %d of %d batch queries", site, len(rep.parts), len(b.wire))
	}
	switch {
	case rep.rowsKind == rowsFull:
		rows := new(core.Rows)
		if err := rows.UnmarshalBinary(rep.rows); err != nil {
			return fmt.Errorf("netsite: site %d rows: %w", site, err)
		}
		if rows.HasConst() {
			return fmt.Errorf("netsite: site %d shipped rows with a constant term", site)
		}
		b.rows[site] = obs.RowsMiss
		b.held[site] = &siteRows{tag: rep.tag, rv: rows}
		b.c.keepRows(site, b.held[site])
	case rep.rowsKind == rowsDelta:
		rows, err := b.patch(site, rep)
		if err != nil {
			return fmt.Errorf("netsite: site %d rows delta: %w", site, err)
		}
		b.rows[site] = obs.RowsPatch
		b.held[site] = rows
		b.c.keepRows(site, rows)
	case b.held[site] == nil && b.needRows:
		return fmt.Errorf("netsite: site %d left out rows the coordinator does not hold", site)
	case b.held[site] != nil:
		b.rows[site] = obs.RowsHit
	}
	qparts := make([]*core.Rows, len(b.wire))
	for j, part := range rep.parts {
		if len(part) == 0 {
			continue
		}
		qparts[j] = new(core.Rows)
		err := qparts[j].UnmarshalBinary(part)
		if err == nil && b.wire[j].Class == ClassRPQ {
			err = core.CheckRPQPartial(qparts[j]) // what the walk can search
		}
		if err != nil {
			return fmt.Errorf("netsite: site %d batch query %d: %w", site, j, err)
		}
	}
	b.qparts[site] = qparts
	b.fed = append(b.fed, site)
	return nil
}

// patch applies a reply's rows delta to the copy of site's rows the
// attempt stands on, the base the site diffed against (see "Why a patch is
// safe").
func (b *batchSolver) patch(site int, rep batchReply) (*siteRows, error) {
	base := b.held[site]
	if base == nil {
		return nil, errors.New("a delta in reply to a request that named no rows")
	}
	if rep.tag.gen <= base.tag.gen {
		return nil, fmt.Errorf("a delta to generation %d is not taken against the held generation %d", rep.tag.gen, base.tag.gen)
	}
	changed := new(core.Rows)
	if err := changed.UnmarshalBinary(rep.rows); err != nil {
		return nil, err
	}
	rows, err := core.Patch(base.source(site), core.RowsDelta{Changed: changed, Dropped: rep.dropped})
	if err != nil {
		return nil, err
	}
	return &siteRows{tag: rowsTag{base.tag.instance, rep.tag.gen}, rv: rows}, nil
}

// vouch opens a skipped site's held rows as a reply with no query parts
// and no rows would: another site's reply said they are current and that
// the site owns no node of the batch.
func (b *batchSolver) vouch(site int) {
	b.rows[site] = obs.RowsHit
	b.fed = append(b.fed, site)
}

// advance brings the walks up to what was fed and vouched for, and reports
// whether every query of the round is now decided. A strict round walks
// once, when every site is in.
func (b *batchSolver) advance() bool {
	if !b.early {
		if len(b.fed) == len(b.held) {
			b.sync() // the one walk of a strict round, timed inside it
		}
		return false
	}
	b.sync()
	for _, p := range b.probes {
		if !p.answer {
			return false
		}
	}
	return true
}

// sync brings the probes up to the replies fed so far. The boundary is the
// one of the rows the attempt stands on: the coordinator's published one
// when its tags match, built otherwise — and then published when it lays
// out what the cache holds, so the next round reuses it. A reply that
// shipped rows changes what the attempt stands on, so the walks restart on
// the new boundary.
func (b *batchSolver) sync() {
	if b.bnd == nil || !b.bnd.holds(b.held) {
		b.eqs, b.probes, b.opened = nil, nil, 0
		if b.bnd = b.c.bnd.Load(); b.bnd == nil || !b.bnd.holds(b.held) {
			b.build()
		}
	}
	if b.probes == nil && b.targets > 0 {
		b.eqs = make([]*targetEqs, b.targets)
		for i := range b.eqs {
			b.eqs[i] = &targetEqs{queryNodes: queryNodes{bnd: b.bnd}, eqs: make(map[int32][]siteEq)}
		}
		for j, q := range b.wire {
			if ti := b.target[j]; ti >= 0 {
				b.probes = append(b.probes, newProbe(b.eqs[ti], q.S, len(b.held)))
			}
		}
	}
	if b.opened == len(b.fed) {
		return
	}
	added := b.fed[b.opened:]
	for _, site := range added {
		for j, part := range b.qparts[site] {
			if ti := b.target[j]; ti >= 0 {
				for e := 0; e < part.NumEqs(); e++ {
					node, cons, vars, _ := part.Eq(e)
					b.eqs[ti].add(site, node, cons, vars)
				}
			}
		}
	}
	for _, p := range b.probes {
		p.openSites(added)
	}
	b.opened = len(b.fed)
}

// build lays out the attempt's rows as a boundary, counts it, and records
// it as a span of the attempt when traced.
func (b *batchSolver) build() {
	start := time.Now()
	b.bnd = buildBoundary(b.held)
	b.built = true
	b.c.builds.Add(1)
	b.c.publish(b.bnd)
	if b.qt != nil {
		b.qt.b.AddSpan(b.qt.par, "boundary.build", start, time.Since(start),
			obs.Attr{Key: "nodes", Val: strconv.Itoa(len(b.bnd.ids))})
	}
}

// finish writes every wire query's answer into its slot once the round
// has settled. Touched stays sound for a reach query proved early:
// flipping the answer to false requires breaking every path, in particular
// the certificate chain inside the walk — whose sites it reports.
func (b *batchSolver) finish(widx []int, answers []BatchAnswer) error {
	b.sync()
	probes := b.probes
	open := make([]bool, len(b.held))
	for _, site := range b.fed {
		open[site] = true
	}
	for j, q := range b.wire {
		i := widx[j]
		switch q.Class {
		case ClassReach:
			p := probes[0]
			probes = probes[1:]
			answers[i] = BatchAnswer{Answer: p.answer, Touched: p.sites()}
		case ClassDist:
			d, touched, err := b.bnd.distance(q.S, q.T, q.L, open, b.partsOf(j))
			if err != nil {
				return fmt.Errorf("netsite: batch query %d: %w", i, err)
			}
			answers[i] = BatchAnswer{Answer: d <= int64(q.L), Dist: d, Touched: touched}
		case ClassRPQ:
			// Every site was posted, so every site's part is in.
			ans, touched := core.WalkRPQ(b.partsOf(j), q.S, q.A.NumStates(), b.bnd.owner)
			answers[i] = BatchAnswer{Answer: ans, Touched: touched}
		}
	}
	return nil
}

// partsOf collects wire query j's partial from every site (nil: silent,
// vouched for with no query part, or an empty part).
func (b *batchSolver) partsOf(j int) []*core.Rows {
	parts := make([]*core.Rows, len(b.held))
	for site, qp := range b.qparts {
		if qp != nil {
			parts[site] = qp[j]
		}
	}
	return parts
}
