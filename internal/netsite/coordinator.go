package netsite

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/codec"
	"distreach/internal/core"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/oplog"
)

// ErrEpochSplit reports that the sites are serving from different
// deployment states — epochs or update-log positions (LSNs) — and the
// round could not be completed consistently. Transient splits (a query
// racing a rebalance swap or an update broadcast) are retried away
// internally; a persistent split means some replica is out of sync — a
// site restarted from stale files, say — and catch-up replication
// (Coordinator.SyncReplicas, run automatically by the gateway) repairs it.
var ErrEpochSplit = errors.New("netsite: sites answered from different states")

// Coordinator is the site Sc: it holds one TCP connection per worker site
// and evaluates queries by posting them to the sites a query needs — every
// site, or for a warm reach or distance round over a shared replica the
// owners of its nodes — in parallel and assembling the returned partial
// answers. It is safe for concurrent use,
// and concurrent queries are multiplexed over the same connections: each
// query round is tagged with a request ID, sites answer in whatever order
// they finish, and a per-connection reader demultiplexes each reply into
// the channel of the round that posted the request. Many queries can be in
// flight at once.
//
// Updates are sequenced: every batch draws a monotonic LSN from the
// coordinator's sequencer (an in-memory one by default; UseSequencer
// attaches a shared or durable one) and replicas apply batches in LSN
// order. Every coordinator and gateway writing to one deployment must
// share one sequencer — that is what gives interleaved writers a single
// total order.
//
// A dropped site connection fails its in-flight queries promptly, then
// heals itself: the coordinator redials in the background with bounded
// exponential backoff, so queries succeed again as soon as the site is
// back — no restart required.
type Coordinator struct {
	conns  []*siteConn
	nextID atomic.Uint32
	updMu  sync.Mutex // serializes update and rebalance rounds locally

	seqMu   sync.Mutex
	seq     *oplog.Sequencer
	seqInit bool // the sequencer has adopted the deployment's LSN

	// siteLSNs tracks the newest LSN each site has answered from — the
	// replica-lag signal /stats and bench report.
	siteLSNs []atomic.Uint64

	// rows is the boundary cache: per site, the in-node rows of its
	// fragment the last reply carried in full or patched into its copy
	// with a delta, tagged with the fragment state
	// they were computed at (batch.go). Exactly one entry per site,
	// replaced in place; the site, not the coordinator, decides whether an
	// entry is current.
	rows []atomic.Pointer[siteRows]
	// bnd is the boundary (boundary.go) of the rows the cache last held
	// whole, which then keeps those rows: reach rounds whose requests named
	// exactly them walk it rather than build their own. builds counts every
	// boundary built.
	bnd    atomic.Pointer[boundary]
	builds atomic.Int64
	// rowsReplies and rowsDeltas total WireStats.RowsReplies and
	// RowsDeltas over every settled attempt (RowsTotals).
	rowsReplies, rowsDeltas atomic.Int64
	// owners is the node→site table routing reads (round.go): which sites
	// a warm reach or distance round has to post to.
	owners ownerTable

	// anytime enables early termination of reach-only rounds (default on;
	// see SetAnytime).
	anytime atomic.Bool
	any     anytimeCounters

	// Tracing and guarantee auditing (see SetTraceSink, SetAuditor). A nil
	// sink means queries run untraced — the zero-cost default.
	traceMu   sync.Mutex
	traceSink func(*obs.Trace)
	auditor   *obs.Auditor
	traceSeq  atomic.Uint64
}

// SetTraceSink arms distributed tracing: every subsequent query round is
// posted with the trace flag and context in its request header, sites
// piggyback their recorded spans on the reply frames, and the assembled
// trace tree is delivered to fn when the query finishes. fn must be safe
// for concurrent use (queries finish concurrently); nil disarms tracing.
func (c *Coordinator) SetTraceSink(fn func(*obs.Trace)) {
	c.traceMu.Lock()
	c.traceSink = fn
	c.traceMu.Unlock()
}

// SetAuditor attaches a guarantee auditor: every query round reports its
// per-site post counts, response volumes, and site-measured evaluation
// times to it (see obs.Auditor). nil detaches.
func (c *Coordinator) SetAuditor(a *obs.Auditor) {
	c.traceMu.Lock()
	c.auditor = a
	c.traceMu.Unlock()
}

func (c *Coordinator) getAuditor() *obs.Auditor {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return c.auditor
}

// qtrace threads one query's trace through the round machinery: the
// shared builder, the trace ID the request header carries, and the span
// the current level parents its children under. A nil *qtrace everywhere
// means "untraced".
type qtrace struct {
	b   *obs.Builder
	id  uint64
	par uint64
}

// child scopes the trace to a new parent span (e.g. one round attempt).
func (qt *qtrace) child(par uint64) *qtrace {
	return &qtrace{b: qt.b, id: qt.id, par: par}
}

// newQueryTrace starts a trace for one query when a sink is armed. Trace
// IDs are a wall-clock-seeded counter: unique across coordinator
// restarts without coordination, cheap to allocate per query.
func (c *Coordinator) newQueryTrace(name string) *qtrace {
	c.traceMu.Lock()
	armed := c.traceSink != nil
	c.traceMu.Unlock()
	if !armed {
		return nil
	}
	for c.traceSeq.Load() == 0 {
		c.traceSeq.CompareAndSwap(0, uint64(time.Now().UnixNano())<<16)
	}
	id := c.traceSeq.Add(1)
	b := obs.NewBuilder(id, name)
	return &qtrace{b: b, id: id, par: b.Root()}
}

// finishTrace completes a query's trace, stamps the trace ID into the
// query's WireStats, and delivers the tree to the sink.
func (c *Coordinator) finishTrace(qt *qtrace, st *WireStats, err error) {
	if qt == nil {
		return
	}
	if err != nil {
		qt.b.AddSpan(qt.b.Root(), "error", time.Now(), 0, obs.Attr{Key: "error", Val: err.Error()})
	}
	tr := qt.b.Finish()
	st.TraceID = tr.ID
	c.traceMu.Lock()
	sink := c.traceSink
	c.traceMu.Unlock()
	if sink != nil {
		sink(tr)
	}
}

// anytimeCounters accumulates the anytime-protocol telemetry /stats and
// bench report; see AnytimeStats.
type anytimeCounters struct {
	earlyTerms atomic.Int64
	stragglers []atomic.Int64
}

// AnytimeStats is a snapshot of the anytime-protocol counters since the
// coordinator was dialed.
type AnytimeStats struct {
	// EarlyTerminations counts rounds answered before every site's reply
	// arrived.
	EarlyTerminations int64
	// Stragglers counts, per site, the rounds decided before that site's
	// reply arrived — a per-site straggler histogram: a site that dominates
	// it is the one slowing full rounds down.
	Stragglers []int64
}

// AnytimeStats reports the anytime-protocol counters.
func (c *Coordinator) AnytimeStats() AnytimeStats {
	st := AnytimeStats{
		EarlyTerminations: c.any.earlyTerms.Load(),
		Stragglers:        make([]int64, len(c.any.stragglers)),
	}
	for i := range c.any.stragglers {
		st.Stragglers[i] = c.any.stragglers[i].Load()
	}
	return st
}

// SetAnytime toggles anytime answers: a reach-only round returns the moment
// the replies in hand prove every query true, and drops the sites still
// evaluating: nothing more is written to them, and their late replies are
// drained by the read loop. On by default. Off, the same round runs
// strict — every site's reply is waited out even when the answer is
// already decided; byte-accounting tests and latency baselines use that
// mode.
func (c *Coordinator) SetAnytime(on bool) { c.anytime.Store(on) }

// Anytime reports whether anytime answers are enabled.
func (c *Coordinator) Anytime() bool { return c.anytime.Load() }

// pendingTotal sums the pending-table sizes across site connections
// (leak tests).
func (c *Coordinator) pendingTotal() int {
	n := 0
	for _, sc := range c.conns {
		n += sc.pendingCount()
	}
	return n
}

// Reconnect backoff bounds: the first redial happens almost immediately,
// later ones back off exponentially up to the cap.
const (
	redialMin = 25 * time.Millisecond
	redialMax = 2 * time.Second
)

// siteFrame is the one response to a request: the frame the demultiplexer
// routed to it or, with err set, the failure that took the connection down
// before one arrived.
type siteFrame struct {
	site    int
	kind    byte
	payload []byte
	n       int // bytes read off the wire for this frame
	err     error
}

// siteConn is one multiplexed connection to a worker site: a write mutex
// serializes outgoing frames, a reader goroutine routes each response frame
// to the round that posted the matching request ID. A request gets exactly
// one response, so the pending table maps its ID straight to the round's
// reply channel, which the round sizes to hold one frame per request it
// posts on it: the reader never blocks on a round, and a round that has
// stopped listening strands nothing but a buffered value. When the reader
// stops (connection dropped, site closed, corrupt frame) every pending
// query fails promptly with the cause — in-flight queries never hang —
// and a background redial loop reconnects with bounded exponential
// backoff; queries posted while the link is down fail fast with the last
// error.
type siteConn struct {
	site    int // index among the coordinator's connections
	addr    string
	timeout time.Duration // dial timeout, initial and redial
	done    chan struct{} // closed by Coordinator.Close; stops redialing

	// Lifetime wire totals for this connection (across redials): every
	// frame written (queries, updates, sync) and every frame read
	// — including late replies the demultiplexer drains after a round
	// already ended, which per-round WireStats can never see. The pair is
	// the ground truth the accounting cross-check sums against.
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64

	wmu sync.Mutex // serializes whole-frame writes

	mu        sync.Mutex
	conn      net.Conn // nil while the link is down
	pending   map[uint32]chan<- siteFrame
	err       error // last failure; nil while connected
	closed    bool
	redialing bool
}

func newSiteConn(site int, addr string, conn net.Conn, timeout time.Duration) *siteConn {
	sc := &siteConn{
		site:    site,
		addr:    addr,
		timeout: timeout,
		done:    make(chan struct{}),
		conn:    conn,
		pending: make(map[uint32]chan<- siteFrame),
	}
	sc.bytesSent.Add(int64(len(preamble)))
	go sc.readLoop(conn)
	return sc
}

// dialSite connects to a site and opens the connection with the preamble.
func dialSite(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, preamble); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

func (sc *siteConn) readLoop(conn net.Conn) {
	r := bufio.NewReader(conn)
	for {
		id, kind, payload, n, err := readFrame(r)
		if err != nil {
			sc.lost(conn, err)
			return
		}
		sc.bytesReceived.Add(int64(n))
		sc.mu.Lock()
		replies, ok := sc.pending[id]
		delete(sc.pending, id)
		sc.mu.Unlock()
		if !ok {
			// A reply with no pending query is dropped: its query already
			// failed on another site's error, timed out, split, or was
			// decided early without it — late frames drain here.
			continue
		}
		// Whatever the kind: the round, not the reader, decides what an
		// unexpected one means. The entry was just deleted and the channel
		// has room for this request's one frame, so the send cannot block.
		replies <- siteFrame{site: sc.site, kind: kind, payload: payload, n: n}
	}
}

// lost records a connection failure, fails every pending request with it
// (the error takes the place of the frame), and starts the redial loop.
// Stale incarnations (a write error racing the reader's own failure) are
// ignored.
func (sc *siteConn) lost(conn net.Conn, err error) {
	conn.Close()
	sc.mu.Lock()
	if sc.conn != conn {
		sc.mu.Unlock()
		return // already failed over from this incarnation
	}
	sc.conn = nil
	sc.err = err
	pend := sc.pending
	sc.pending = make(map[uint32]chan<- siteFrame)
	redial := !sc.closed && !sc.redialing
	if redial {
		sc.redialing = true
	}
	sc.mu.Unlock()
	for _, replies := range pend {
		replies <- siteFrame{site: sc.site, err: err}
	}
	if redial {
		go sc.redial()
	}
}

// redial reconnects with bounded exponential backoff until it succeeds or
// the coordinator closes.
func (sc *siteConn) redial() {
	backoff := redialMin
	for {
		select {
		case <-sc.done:
			return
		default:
		}
		conn, err := dialSite(sc.addr, sc.timeout)
		if err == nil {
			sc.mu.Lock()
			if sc.closed {
				sc.mu.Unlock()
				conn.Close()
				return
			}
			sc.conn = conn
			sc.err = nil
			sc.redialing = false
			sc.mu.Unlock()
			sc.bytesSent.Add(int64(len(preamble)))
			go sc.readLoop(conn)
			return
		}
		sc.mu.Lock()
		sc.err = fmt.Errorf("redial %s: %w", sc.addr, err)
		sc.mu.Unlock()
		select {
		case <-sc.done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// post registers id in the pending table and sends the request frame whose
// payload follows the headroom of the frame buffer buf (newFrame); it
// reports the bytes written. The one response — or the connection's failure
// — is delivered on replies, which must have room for it. The registration
// happens before the write so a fast reply can never race past its waiter.
func (sc *siteConn) post(id uint32, kind byte, buf []byte, replies chan<- siteFrame) (int, error) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return 0, fmt.Errorf("coordinator closed")
	}
	if sc.conn == nil {
		err := sc.err
		sc.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("connection down")
		}
		return 0, err
	}
	conn := sc.conn
	sc.pending[id] = replies
	sc.mu.Unlock()
	sc.wmu.Lock()
	n, err := writeFrame(conn, id, kind, buf, frameHeadroom)
	sc.wmu.Unlock()
	if err != nil {
		// A failed write may have flushed part of the frame, desyncing the
		// length-prefixed stream: poison this incarnation rather than let
		// later queries parse garbage. The redial loop takes it from here.
		sc.lost(conn, err)
		return 0, err
	}
	sc.bytesSent.Add(int64(n))
	return n, nil
}

// drop abandons a pending request (context deadline or cancellation, a
// failed or split round, or an early anytime decision): nothing is sent,
// the site still answers, and the read loop discards the reply.
func (sc *siteConn) drop(id uint32) {
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
}

// pendingCount reports the number of in-flight entries (leak tests).
func (sc *siteConn) pendingCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.pending)
}

// close tears the connection down for good: no redial, pending queries
// fail. Safe to call more than once.
func (sc *siteConn) close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil
	}
	close(sc.done)
	sc.closed = true
	conn := sc.conn
	sc.conn = nil
	if sc.err == nil {
		sc.err = fmt.Errorf("coordinator closed")
	}
	err := sc.err
	pend := sc.pending
	sc.pending = make(map[uint32]chan<- siteFrame)
	sc.mu.Unlock()
	for _, replies := range pend {
		replies <- siteFrame{site: sc.site, err: err}
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Dial connects to the given site addresses. The coordinator starts with
// a fresh in-memory sequencer; before its first update it adopts the
// deployment's current LSN (a hello round), so it extends the existing
// order. Multiple coordinators writing to one deployment must share a
// sequencer via UseSequencer.
func Dial(addrs []string, timeout time.Duration) (*Coordinator, error) {
	c := &Coordinator{seq: oplog.NewSequencer(0)}
	for _, a := range addrs {
		conn, err := dialSite(a, timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netsite: dial %s: %w", a, err)
		}
		c.conns = append(c.conns, newSiteConn(len(c.conns), a, conn, timeout))
	}
	c.siteLSNs = make([]atomic.Uint64, len(c.conns))
	c.rows = make([]atomic.Pointer[siteRows], len(c.conns))
	c.any.stragglers = make([]atomic.Int64, len(c.conns))
	c.anytime.Store(true)
	return c, nil
}

// NumSites reports how many worker sites the coordinator is connected to.
func (c *Coordinator) NumSites() int { return len(c.conns) }

// UseSequencer attaches the sequencer update batches draw their LSNs
// from: the shared (often durable, write-ahead logging) sequencer of the
// deployment. It replaces the private in-memory one Dial installs.
func (c *Coordinator) UseSequencer(s *oplog.Sequencer) {
	c.seqMu.Lock()
	c.seq = s
	c.seqInit = false
	c.seqMu.Unlock()
}

// Sequencer reports the coordinator's current sequencer.
func (c *Coordinator) Sequencer() *oplog.Sequencer {
	c.seqMu.Lock()
	defer c.seqMu.Unlock()
	return c.seq
}

// ReplicaLSNs reports the newest LSN each site has answered from — a lag
// of s.Sequencer().LSN()-min(ReplicaLSNs()) batches means some replica
// has not yet caught up.
func (c *Coordinator) ReplicaLSNs() []uint64 {
	out := make([]uint64, len(c.siteLSNs))
	for i := range c.siteLSNs {
		out[i] = c.siteLSNs[i].Load()
	}
	return out
}

// noteSiteLSN records the newest LSN observed from site i.
func (c *Coordinator) noteSiteLSN(i int, lsn uint64) {
	for {
		cur := c.siteLSNs[i].Load()
		if lsn <= cur || c.siteLSNs[i].CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// WireTotals reports the coordinator's lifetime wire traffic across all
// site connections: every byte written and read since Dial, including each
// connection's preamble, control frames (sync catch-up) and late
// replies drained after their round ended. Per-round WireStats necessarily
// undercounts the latter; this pair is what the accounting cross-checks
// and the gateway's wire gauges sum against.
func (c *Coordinator) WireTotals() (sent, received int64) {
	for _, sc := range c.conns {
		sent += sc.bytesSent.Load()
		received += sc.bytesReceived.Load()
	}
	return sent, received
}

// RowsTotals reports how many settled query rounds' replies carried a
// site's boundary rows, in full or as a delta, and how many of those were
// deltas — WireStats.RowsReplies and RowsDeltas summed since Dial.
func (c *Coordinator) RowsTotals() (replies, deltas int64) {
	return c.rowsReplies.Load(), c.rowsDeltas.Load()
}

// Close shuts down all site connections; in-flight queries fail and no
// reconnection is attempted.
func (c *Coordinator) Close() error {
	var first error
	for _, sc := range c.conns {
		if sc != nil {
			if err := sc.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// WireStats is the on-the-wire accounting of one query round (or one
// whole batch round; see Coordinator.Batch).
type WireStats struct {
	BytesSent      int64         // query frames to all sites
	BytesReceived  int64         // partial-answer frames
	FramesSent     int64         // request frames; one per posted site per round, at most the site count
	FramesReceived int64         // response frames; at most one per posted site per round
	RoundTrip      time.Duration // slowest site's post+reply wall time

	// PartialFrames always reads 0: benchmark/wire.go is its last reader.
	PartialFrames int64
	// CancelFrames always reads 0, as PartialFrames does: a round writes
	// nothing after its requests.
	CancelFrames int64

	// FirstAnswer is the elapsed time until the answer was determined: for
	// an anytime round, the instant the replies in hand proved it (before
	// the stragglers'); otherwise it equals RoundTrip. Across retried
	// rounds it accumulates like RoundTrip.
	FirstAnswer time.Duration

	// EarlyTerminated reports that the round was answered before every
	// site's reply arrived (the remaining sites' replies are drained).
	EarlyTerminated bool

	// RowsReplies counts the sites whose reply carried their fragment's
	// boundary rows — the coordinator held none for them, or a copy from
	// before the fragment last changed — in full or as a delta; RowsDeltas
	// counts the deltas among them. The other replies of a reach round
	// carried the query part only. Across retried rounds both accumulate.
	RowsReplies int64
	RowsDeltas  int64

	// Epoch is the deployment epoch every site answered from, and LSN the
	// update-log position. Query rounds enforce agreement on both
	// (retrying the rare round that straddles a live rebalance or update
	// broadcast), so one answer never mixes fragmentation epochs or
	// update states.
	Epoch uint64
	LSN   uint64

	// Touched lists, sorted, the sites (== fragment indices) whose partial
	// answers the query's solution actually depends on — the dependency
	// closure of the source variable, read off what decided the query (a
	// reach query's walk over the boundary, boundary.go; the weighted
	// system of a distance query; soundness in core/touched.go). An answer
	// cache keyed on it can evict precisely when a fragment changes. Nil
	// for rounds without that notion (batches report it per query, updates
	// report a dirty set instead).
	Touched []int

	// TraceID identifies the distributed trace recorded for this query,
	// when tracing was armed (SetTraceSink); 0 otherwise. The gateway
	// returns it to clients so a slow request can be looked up under
	// /trace/<id>.
	TraceID uint64
}

// add accumulates another round's accounting (used when an epoch-split
// round retries: the retried frames and bytes are real traffic).
func (st *WireStats) add(o WireStats) {
	st.BytesSent += o.BytesSent
	st.BytesReceived += o.BytesReceived
	st.FramesSent += o.FramesSent
	st.FramesReceived += o.FramesReceived
	st.RoundTrip += o.RoundTrip
	st.FirstAnswer += o.FirstAnswer
	st.RowsReplies += o.RowsReplies
	st.RowsDeltas += o.RowsDeltas
	st.EarlyTerminated = o.EarlyTerminated
	st.Epoch = o.Epoch
	st.LSN = o.LSN
}

// siteResult is one site's outcome in a round: either an answer (body +
// the state tag it carried) or an error. appErr distinguishes an error
// *reply* from the site (the frame arrived, the site refused) from a
// connection-level failure (the site never saw or never answered the
// frame).
type siteResult struct {
	payload []byte
	epoch   uint64
	lsn     uint64
	err     error
	appErr  bool
}

// answerOf reads one delivered siteFrame as the site's outcome, parsing the
// state tag off an answer — shared by the query round and the control
// round. Any kind but 'R' and 'E' is an error naming it.
func (c *Coordinator) answerOf(f siteFrame) (res siteResult) {
	if f.err != nil {
		res.err = fmt.Errorf("site %d: %w", f.site, f.err)
		return res
	}
	res.appErr = true
	switch {
	case f.kind == kindError:
		res.err = fmt.Errorf("site %d: %s", f.site, f.payload)
	case f.kind != kindAnswer:
		res.err = fmt.Errorf("site %d: unexpected frame kind %q", f.site, f.kind)
	default:
		var err error
		if res.epoch, res.lsn, res.payload, err = readTag(f.payload); err != nil {
			res.err = fmt.Errorf("site %d: answer state tag: %w", f.site, err)
			return res
		}
		res.appErr = false
		c.noteSiteLSN(f.site, res.lsn)
	}
	return res
}

// readTag splits an answer payload into its (epoch, lsn) state tag and the
// body after it.
func readTag(p []byte) (epoch, lsn uint64, body []byte, err error) {
	r := codec.NewReader(p)
	epoch, lsn = r.Uvarint(), r.Uvarint()
	return epoch, lsn, r.Rest(), r.Err()
}

// exchange is the control-plane round ('U', 'R', 'S' frames): it posts one
// frame to each of the given sites and collects one response from each,
// reporting per-site outcomes indexed by site, so callers that can tolerate
// individual failures (sequenced updates, whose log re-delivers to
// laggards) inspect the slice. Unlike a query round it enforces no state
// agreement between the replies and never drops a site on another's
// failure — which is why it is not the query round with a flag. Concurrent
// rounds interleave freely: each draws a fresh request ID and its own reply
// channel. A context deadline or cancellation abandons the round promptly.
func (c *Coordinator) exchange(ctx context.Context, kind byte, payload []byte, sites ...int) ([]siteResult, WireStats) {
	id := c.nextID.Add(1)
	start := time.Now()
	results := make([]siteResult, len(c.conns))
	var st WireStats
	replies := make(chan siteFrame, len(sites))
	owed := make([]bool, len(c.conns)) // posted, response not yet in
	waiting := 0
	buf := append(newFrame(len(payload)), payload...)
	for _, i := range sites {
		n, err := c.conns[i].post(id, kind, buf, replies)
		if err != nil {
			results[i].err = fmt.Errorf("site %d: %w", i, err)
			continue
		}
		st.BytesSent += int64(n)
		st.FramesSent++
		owed[i] = true
		waiting++
	}
	for waiting > 0 {
		select {
		case f := <-replies:
			if !owed[f.site] {
				continue // a failed post's connection loss, already reported
			}
			owed[f.site] = false
			waiting--
			if results[f.site] = c.answerOf(f); results[f.site].err == nil {
				st.BytesReceived += int64(f.n)
				st.FramesReceived++
			}
		case <-ctx.Done():
			for i, o := range owed {
				if o {
					c.conns[i].drop(id)
					results[i].err = fmt.Errorf("site %d: %w", i, ctx.Err())
				}
			}
			waiting = 0
		}
	}
	st.RoundTrip = time.Since(start)
	return results, st
}

// roundtripAll is exchange with every site.
func (c *Coordinator) roundtripAll(ctx context.Context, kind byte, payload []byte) ([]siteResult, WireStats) {
	all := make([]int, len(c.conns))
	for i := range all {
		all[i] = i
	}
	return c.exchange(ctx, kind, payload, all...)
}

// postOne is exchange with a single site — the form catch-up replication
// uses, whose replay payloads differ per site. A non-nil st accumulates the
// exchange's wire accounting.
func (c *Coordinator) postOne(ctx context.Context, site int, kind byte, payload []byte, st *WireStats) ([]byte, error) {
	if site < 0 || site >= len(c.conns) {
		return nil, fmt.Errorf("netsite: site %d out of range [0,%d)", site, len(c.conns))
	}
	results, rst := c.exchange(ctx, kind, payload, site)
	if st != nil {
		st.add(rst)
	}
	return results[site].payload, results[site].err
}

// one runs a single query as a batch of one, folding the query's Touched
// set into the round's stats — the shape the single-query methods return.
func (c *Coordinator) one(ctx context.Context, q BatchQuery) (BatchAnswer, WireStats, error) {
	answers, st, err := c.BatchContext(ctx, []BatchQuery{q})
	if err != nil {
		return BatchAnswer{Dist: core.Inf}, st, err
	}
	st.Touched = answers[0].Touched
	return answers[0], st, nil
}

// Reach evaluates qr(s, t) over the connected sites.
func (c *Coordinator) Reach(s, t graph.NodeID) (bool, WireStats, error) {
	return c.ReachContext(context.Background(), s, t)
}

// ReachContext is Reach honoring a context deadline or cancellation. With
// anytime enabled (the default) the round may return the moment the replies
// in hand prove the answer true, without waiting for the remaining sites;
// see SetAnytime.
func (c *Coordinator) ReachContext(ctx context.Context, s, t graph.NodeID) (bool, WireStats, error) {
	a, st, err := c.one(ctx, BatchQuery{Class: ClassReach, S: s, T: t})
	return a.Answer, st, err
}

// ReachWithin evaluates qbr(s, t, l); it returns the answer and the exact
// distance when within l (core.Inf otherwise).
func (c *Coordinator) ReachWithin(s, t graph.NodeID, l int) (bool, int64, WireStats, error) {
	a, st, err := c.one(context.Background(), BatchQuery{Class: ClassDist, S: s, T: t, L: l})
	return a.Answer, a.Dist, st, err
}

// ReachRegex evaluates qrr(s, t, R) for the query automaton a.
func (c *Coordinator) ReachRegex(s, t graph.NodeID, a *automaton.Automaton) (bool, WireStats, error) {
	ans, st, err := c.one(context.Background(), BatchQuery{Class: ClassRPQ, S: s, T: t, A: a})
	return ans.Answer, st, err
}
