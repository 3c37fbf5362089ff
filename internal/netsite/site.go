package netsite

import (
	"bufio"
	"encoding"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/oplog"
)

// workers bounds the per-connection worker pool — how many frames from one
// coordinator connection evaluate concurrently: enough to keep a
// multiplexing coordinator busy without letting one connection monopolize
// the site.
const workers = 8

// SiteOptions tunes a Site at construction time.
type SiteOptions struct {
	// Delay adds an artificial pause before each local evaluation. It
	// emulates slower sites (WAN deployments, loaded machines) and gives
	// tests a deterministic per-query service time; 0 disables it.
	Delay time.Duration
	// Store, if set, makes the site durable: every applied update batch
	// (live or replayed) is appended to the store's log, and snapshots are
	// written every SnapshotEvery batches (truncating the log behind
	// them). A restarted site recovers from the store (oplog.Recover) and
	// catch-up replication streams only what it missed while down.
	Store *oplog.Store
	// SnapshotEvery is the local checkpoint cadence in applied batches;
	// 0 disables periodic snapshots (the log grows until truncated by an
	// installed snapshot).
	SnapshotEvery int
	// Metrics, if set, receives the site's own request telemetry (frame
	// counts by kind, queue-wait and evaluation histograms) — what a
	// standalone cmd/site process serves at its /metrics endpoint. Sites
	// may share one registry; the families are registered idempotently.
	Metrics *obs.Registry
}

// siteMetrics is the per-site instrument set, non-nil only when
// SiteOptions.Metrics was given.
type siteMetrics struct {
	frames *obs.CounterVec // by request kind
	errs   *obs.Counter
	queue  *obs.Histogram    // seconds a frame waited for a worker
	eval   *obs.HistogramVec // seconds one local evaluation took, by kind
}

func newSiteMetrics(r *obs.Registry) *siteMetrics {
	return &siteMetrics{
		frames: r.CounterVec("site_frames_total", "Request frames served, by kind.", "kind"),
		errs:   r.Counter("site_frame_errors_total", "Request frames answered with an error frame."),
		queue:  r.Histogram("site_queue_wait_seconds", "Seconds a frame waited for a worker.", nil),
		eval:   r.HistogramVec("site_eval_seconds", "Seconds one local evaluation took, by kind.", "kind", nil),
	}
}

// Site serves one fragment index over TCP. Create with NewSiteFor or
// NewSiteReplica, then Addr gives the dial address for the coordinator;
// Close shuts the listener down. Frames
// arriving on one connection are evaluated concurrently by a bounded
// worker pool, so a coordinator multiplexing many queries over the
// connection is served in parallel, not one frame at a time.
//
// A site holds a Replica of the whole fragmentation and accepts update,
// rebalance and sync frames:
// queries snapshot the replica's current state, evaluate under its read
// lock (so a mutation never tears a fragment mid-evaluation), and stamp
// their answer with the epoch and update-log LSN they evaluated at; a
// rebalance builds the next fragmentation while queries keep flowing and
// swaps it in atomically; sync frames stream the update-log suffix (or a
// whole snapshot) into a replica that fell behind. In-process sites
// created by ServeFragmentation share one Replica, which makes broadcast
// updates and rebalances idempotent across them.
type Site struct {
	rep    *fragment.Replica
	fragID int
	ln     net.Listener
	delay  time.Duration

	store     *oplog.Store
	snapEvery int
	persistMu sync.Mutex // orders replica apply + log append across workers
	met       *siteMetrics
	memo      rowsMemo // the newest two states of the fragment's rows

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// Logf, if set, receives connection-level errors (default: dropped).
	// Set it before the first coordinator connects.
	Logf func(format string, args ...any)
}

// NewSiteFor starts serving fragment fragID of fr on addr
// ("127.0.0.1:0" picks a free port). The site wraps fr in its own Replica
// of the deployment.
func NewSiteFor(addr string, fr *fragment.Fragmentation, fragID int, o SiteOptions) (*Site, error) {
	return NewSiteReplica(addr, fragment.NewReplica(fr), fragID, o)
}

// NewSiteReplica starts serving fragment fragID of the given shared
// replica on addr. Sites sharing one Replica (the in-process deployment
// of ServeFragmentation) apply broadcast updates and rebalances once
// between them.
func NewSiteReplica(addr string, rep *fragment.Replica, fragID int, o SiteOptions) (*Site, error) {
	fr, _ := rep.Current()
	if fragID < 0 || fragID >= fr.Card() {
		return nil, fmt.Errorf("netsite: fragment %d out of range [0,%d)", fragID, fr.Card())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsite: %w", err)
	}
	s := &Site{
		rep:       rep,
		fragID:    fragID,
		ln:        ln,
		delay:     o.Delay,
		store:     o.Store,
		snapEvery: o.SnapshotEvery,
		conns:     make(map[net.Conn]struct{}),
	}
	if o.Metrics != nil {
		s.met = newSiteMetrics(o.Metrics)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the address the site listens on.
func (s *Site) Addr() string { return s.ln.Addr().String() }

// Close stops the site and its connections.
func (s *Site) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Site) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Site) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			if err := s.serveConn(conn); err != nil {
				s.logf("netsite: connection ended: %v", err)
			}
		}()
	}
}

// frameJob is one request frame awaiting evaluation. rec is set by
// handleBatch when the request's header carries the trace flag: a span
// recorder anchored at recv, the frame-receipt instant.
type frameJob struct {
	id      uint32
	kind    byte
	payload []byte
	recv    time.Time
	rec     *obs.Recorder
}

// kindLabel names a request kind for the site's metric labels.
func kindLabel(kind byte) string {
	if kind == kindBatch {
		return "query"
	}
	return string(rune(kind))
}

// serveConn handles one coordinator connection: a reader feeds request
// frames to a bounded pool of workers, each answering with a response
// frame that echoes the request ID and carries the epoch and update-log
// LSN the frame was served at. Responses go out in completion order; the
// coordinator's demultiplexer reorders by ID.
func (s *Site) serveConn(conn net.Conn) error {
	jobs := make(chan frameJob)
	var (
		wmu    sync.Mutex  // serializes whole response frames
		broken atomic.Bool // a response write failed; drain without writing
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if broken.Load() {
					continue // connection died; don't evaluate dead work
				}
				if s.met != nil {
					s.met.frames.With(kindLabel(j.kind)).Inc()
					s.met.queue.Observe(time.Since(j.recv).Seconds())
				}
				epoch, lsn, resp, err := s.handle(&j)
				kind, off := byte(kindAnswer), 0
				if err != nil {
					kind, off = kindError, frameHeadroom
					resp = append(newFrame(len(err.Error())), err.Error()...)
					if s.met != nil {
						s.met.errs.Inc()
					}
				} else {
					off = putTag(resp, epoch, lsn)
				}
				wmu.Lock()
				_, werr := writeFrame(conn, j.id, kind, resp, off)
				wmu.Unlock()
				if werr != nil {
					// Poison the connection: the reader unblocks with an
					// error, and remaining jobs drain without writing.
					broken.Store(true)
					conn.Close()
				}
			}
		}()
	}
	r := bufio.NewReader(conn)
	err := readPreamble(r)
	for err == nil {
		id, kind, payload, _, rerr := readFrame(r)
		if rerr != nil {
			err = rerr // includes clean EOF on coordinator close
			break
		}
		jobs <- frameJob{id: id, kind: kind, payload: payload, recv: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return err
}

// handle evaluates one request frame and returns the answer body in a
// frame buffer (newFrame). Every request kind pays the site's artificial
// service delay (SiteOptions.Delay) first.
func (s *Site) handle(j *frameJob) (uint64, uint64, []byte, error) {
	if j.kind == kindBatch {
		return s.handleBatch(j)
	}
	time.Sleep(s.delay)
	var (
		epoch, lsn uint64
		body       []byte
		err        error
	)
	switch j.kind {
	case kindUpdate:
		epoch, lsn, body, err = s.handleUpdate(j.payload)
	case kindRebalance:
		epoch, lsn, body, err = s.handleRebalance(j.payload)
	case kindSync:
		epoch, lsn, body, err = s.handleSync(j.payload)
	default:
		err = fmt.Errorf("unknown request kind %q", j.kind)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return epoch, lsn, append(newFrame(len(body)), body...), nil
}

// evalAttrs renders one evaluation's reachability-index outcome as the
// eval span's attribute: hit (the labels answered every probe), fallback
// or mixed (an over-budget component sent the part to the search, after
// none or some of the probes were answered), or off (no probe reached an
// index at all). /stats reachindex aggregates the per-probe hits and
// fallbacks.
func evalAttrs(met *core.EvalMetrics) []obs.Attr {
	fell := met.OverBudgetEqs
	outcome := "off"
	switch {
	case met.IndexedEqs > 0 && fell == 0:
		outcome = "hit"
	case met.IndexedEqs > 0:
		outcome = "mixed"
	case fell > 0:
		outcome = "fallback"
	}
	return []obs.Attr{{Key: "reachindex_outcome", Val: outcome}}
}

// applyPersisted runs one sequenced batch through the replica and, when
// the site is durable, logs the slot (applied or deterministically
// rejected — both advance the order) and takes a periodic checkpoint. The
// persist mutex keeps the log's LSN sequence aligned with the replica's
// when a live update and a catch-up replay interleave.
func (s *Site) applyPersisted(lsn, nonce uint64, ops []Op) (fragment.ApplyResult, bool, error) {
	if s.store != nil {
		s.persistMu.Lock()
		defer s.persistMu.Unlock()
	}
	res, advanced, err := s.rep.ApplyLSN(lsn, nonce, ops)
	if advanced && s.store != nil {
		if perr := s.store.Log().Append(oplog.Record{LSN: lsn, Ops: ops}); perr != nil {
			s.logf("netsite: oplog append of batch %d failed: %v", lsn, perr)
		} else if s.snapEvery > 0 && lsn >= s.store.SnapshotLSN()+uint64(s.snapEvery) {
			// The periodic checkpoint is a designated compaction point:
			// fold the accumulated mutation overlays back into the flat
			// CSR bases before freezing the state. Compaction retires the
			// reachability indexes and rebuilds them in the background;
			// the snapshot does not carry them, so nothing waits.
			if fr, _ := s.rep.Current(); fr != nil {
				fr.Compact()
			}
			if snap, serr := oplog.TakeSnapshot(s.rep); serr != nil {
				s.logf("netsite: snapshot at batch %d failed: %v", lsn, serr)
			} else if serr := s.store.SaveSnapshot(snap); serr != nil {
				s.logf("netsite: snapshot at batch %d failed: %v", lsn, serr)
			}
		}
	}
	return res, advanced, err
}

// handleUpdate applies one sequenced mutation batch to the site's replica
// and reports what changed from its point of view, including the
// post-update balance stats. The mutation locks out query evaluation
// internally (writers exclude the read lock queries take), the LSN orders
// the batch against every other writer's, and re-delivered frames replay
// the recorded outcome.
func (s *Site) handleUpdate(payload []byte) (uint64, uint64, []byte, error) {
	lsn, nonce, ops, err := decodeUpdateRequest(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	res, _, err := s.applyPersisted(lsn, nonce, ops)
	if err != nil {
		return 0, 0, nil, err
	}
	fr, epoch, at := s.rep.State()
	return epoch, at, encodeUpdateReply(res.Changed, res.Dirty, res.NewIDs, fr.BalanceStats()), nil
}

// handleRebalance re-fragments the site's replica at the requested epoch.
// The rebuild happens under the old fragmentation's read lock — queries
// keep flowing the whole time — and the swap is atomic; replicas already
// at (or past) the epoch no-op, which makes the broadcast idempotent both
// for co-located sites sharing a replica and for re-delivered frames.
func (s *Site) handleRebalance(payload []byte) (uint64, uint64, []byte, error) {
	epoch, k, seed, name, err := decodeRebalanceRequest(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	p, err := fragment.ByName(name, seed)
	if err != nil {
		return 0, 0, nil, err
	}
	cur, _ := s.rep.Current()
	if k != cur.Card() {
		return 0, 0, nil, fmt.Errorf("rebalance wants %d fragments, deployment has %d sites", k, cur.Card())
	}
	applied, err := s.rep.Rebalance(epoch, p)
	if err != nil {
		return 0, 0, nil, err
	}
	fr, at, lsn := s.rep.State()
	return at, lsn, encodeRebalanceReply(at, applied, fr.Fingerprint(), fr.BalanceStats()), nil
}

// handleBatch is the only query handler: it evaluates a whole query frame
// — a batch of one or of many — against the fragment in one pass and
// returns one partial answer per query. A reach query's partial is its
// query part: the source's own equation, plus — once per distinct target
// of the batch — the in-nodes that reach the target here. A distance
// query's is the same within its bound, with weights (core.DistQueryPart).
// The fragment's weighted boundary rows, which every reach and distance
// answer also rests on, ship only when the request's tag says the
// coordinator does not hold the current ones: one section for the whole
// batch (see batch.go). The reply also names the owners of each reach and
// distance query's nodes and, when the request skipped sites, the skipped
// sites whose rows the coordinator holds at a stale generation, so that
// it may vouch for the others. A regex query's partial is its product rows,
// evaluated individually and in full; its round ships rows too (the
// coordinator reads node owners off them) unless the coordinator has none.
// The frame's service delay (Site.delay) is paid once per batch, not once
// per query — the amortization the batch protocol exists to deliver.
func (s *Site) handleBatch(j *frameJob) (uint64, uint64, []byte, error) {
	picked := time.Now()
	qs, h, err := decodeBatchRequest(j.payload)
	if err != nil {
		return 0, 0, nil, err
	}
	if h.traced {
		j.rec = obs.NewRecorder(j.recv)
		j.rec.Span(-1, "queue", j.recv, picked)
	}
	time.Sleep(s.delay)
	// Queries snapshot the current fragmentation and read their fragment
	// under its lock, so a concurrent update never mutates it
	// mid-evaluation and a concurrent rebalance swap leaves this
	// evaluation draining consistently against the old epoch. The LSN the
	// reply is stamped with is read under that lock too: it is the LSN of
	// the state evaluated, not of one a batch applied since has replaced.
	// (Replica.State under the lock would deadlock against ApplyLSN, which
	// holds the replica's mutex while it waits for the write lock.)
	fr, epoch := s.rep.Current()
	frag := fr.Fragments()[s.fragID]
	lockStart := time.Now()
	fr.RLock()
	defer fr.RUnlock()
	lsn := fr.LSN()
	if j.rec != nil {
		j.rec.Span(-1, "lock", lockStart, time.Now())
	}
	var opt *core.Options
	if j.rec != nil {
		opt = &core.Options{Metrics: &core.EvalMetrics{}}
	}
	evalStart := time.Now()

	rep := batchReply{parts: make([][]byte, len(qs))}
	asked := make(map[graph.NodeID]bool) // reach targets whose equations an earlier query shipped
	// The owner of a node, for the reply's owners section; -1 when the
	// node is none of the graph's or a tombstone.
	owner := func(v graph.NodeID) int {
		if int(v) < fr.Graph().NumNodes() {
			return fr.Owner(v)
		}
		return -1
	}
	for i, q := range qs {
		if q.Class != ClassRPQ {
			rep.owners = append(rep.owners, owner(q.S), owner(q.T))
		}
		var rv encoding.BinaryMarshaler
		switch q.Class {
		case ClassReach:
			part := core.SourceOnlyReach(frag, q.S, q.T)
			if !asked[q.T] {
				asked[q.T] = true
				if part == nil {
					part = new(core.Rows)
				}
				part.Append(core.TargetOnlyReach(frag, q.T, opt))
			}
			if part.NumEqs() == 0 {
				continue // nothing to say
			}
			rv = part
		case ClassDist:
			part := core.DistQueryPart(frag, q.S, q.T, q.L)
			if part.NumEqs() == 0 {
				continue // as for reach
			}
			rv = part
		case ClassRPQ:
			if err := core.CheckRPQKeys(max(fr.Graph().NumNodes(), int(max(q.S, q.T))+1), q.A.NumStates()); err != nil {
				return 0, 0, nil, err
			}
			rv = core.LocalEvalRPQ(frag, q.S, q.T, q.A)
		default:
			// Unreachable: decodeBatchRequest rejects unknown classes.
			return 0, 0, nil, fmt.Errorf("unknown batch query class %q", byte(q.Class))
		}
		if rep.parts[i], err = rv.MarshalBinary(); err != nil {
			return 0, 0, nil, err
		}
	}
	// The sites the coordinator skipped share this fragmentation only when
	// the request head, which the skip section stands on, names its
	// instance; then their generations, read under the same lock, say whose
	// held rows are stale. Otherwise all are.
	for i, site := range h.skip.sites {
		if h.instance != fr.Instance() || site >= fr.Card() || fr.Fragments()[site].Generation() != h.skip.gens[i] {
			rep.stale = append(rep.stale, site)
		}
	}
	// The rows, unless the coordinator holds this very state of them: a
	// delta against the state it holds when the memo keeps that, else in
	// full; none for regex queries alone (no owners named) if it holds
	// none. The generation is read under the lock the evaluation holds, so
	// the tag names exactly the fragment the rows are computed on.
	if tag := (rowsTag{fr.Instance(), frag.Generation()}); h.rows() != tag && (h.held || len(rep.owners) > 0) {
		cur, base := s.memo.rows(frag, tag, h.rows())
		switch {
		case base != nil:
			var was, now core.Rows
			if err := errors.Join(was.UnmarshalBinary(base.enc), now.UnmarshalBinary(cur.enc)); err != nil {
				return 0, 0, nil, err
			}
			d := core.Diff(&was, &now)
			rep.rowsKind, rep.tag.gen, rep.dropped = rowsDelta, tag.gen, d.Dropped
			if rep.rows, err = d.Changed.MarshalBinary(); err != nil {
				return 0, 0, nil, err
			}
		default:
			rep.rowsKind, rep.tag, rep.rows = rowsFull, tag, cur.enc
		}
	}
	evalEnd := time.Now()
	if s.met != nil {
		s.met.eval.With(kindLabel(j.kind)).Observe(evalEnd.Sub(evalStart).Seconds())
	}
	// The one query reply: the recorded spans — none, one byte, when the
	// request was untraced — head the body.
	b := newFrame(rep.size() + 1)
	if j.rec != nil {
		j.rec.Span(-1, "eval", evalStart, evalEnd, evalAttrs(opt.Metrics)...)
		b = j.rec.AppendWire(b)
	} else {
		b = obs.AppendWireSpans(b, nil)
	}
	return epoch, lsn, encodeBatchReply(b, rep), nil
}

// rowsMemo keeps the newest two states of one site's fragment rows it
// computed, keyed by their full tag: the state a stale coordinator holds,
// to diff the current one against, and the current one, so that every
// round in flight at one generation shares a single core.LocalRows. A new
// instance (rebalance, snapshot install, restart) matches no kept state of
// the old one, so its first replies ship full rows.
type rowsMemo struct {
	mu       sync.Mutex
	kept     [2]*memoRows // kept[1] the newer; entries immutable
	computed atomic.Int64 // core.LocalRows calls
}

// memoRows is one kept state of the rows, kept encoded: the encoding is
// what a full reply ships, and a few times smaller than the decoded rows.
type memoRows struct {
	tag rowsTag
	enc []byte
}

// rows returns the fragment's rows at tag — its current state, read under
// the read lock the caller holds — computing them unless kept, and the
// rows kept at base when base is an earlier generation of tag's instance
// (nil otherwise).
func (m *rowsMemo) rows(f *fragment.Fragment, tag, base rowsTag) (cur, old *memoRows) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.kept {
		switch {
		case e == nil:
		case e.tag == tag:
			cur = e
		case e.tag == base && base.instance == tag.instance && base.gen < tag.gen:
			old = e
		}
	}
	if cur != nil {
		return cur, old
	}
	rv := core.LocalRows(f)
	m.computed.Add(1)
	enc, _ := rv.MarshalBinary() // never fails
	cur = &memoRows{tag: tag, enc: enc}
	m.kept[0], m.kept[1] = m.kept[1], cur
	return cur, old
}

// ServeFragmentation is a convenience that starts one Site per fragment on
// loopback ports and returns the sites plus their addresses. The sites
// share one Replica, so broadcast updates and rebalances apply once.
// Callers must Close every site.
func ServeFragmentation(fr *fragment.Fragmentation) ([]*Site, []string, error) {
	return ServeReplica(fragment.NewReplica(fr), SiteOptions{})
}

// ServeReplica starts one Site per fragment of the given shared replica on
// loopback ports — ServeFragmentation for a replica recovered from a
// store (oplog.Recover) rather than built fresh.
func ServeReplica(rep *fragment.Replica, o SiteOptions) ([]*Site, []string, error) {
	fr, _ := rep.Current()
	sites := make([]*Site, 0, fr.Card())
	addrs := make([]string, 0, fr.Card())
	for _, f := range fr.Fragments() {
		s, err := NewSiteReplica("127.0.0.1:0", rep, f.ID, o)
		if err != nil {
			for _, prev := range sites {
				prev.Close()
			}
			return nil, nil, err
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	return sites, addrs, nil
}
