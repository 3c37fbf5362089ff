package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distreach"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/obs"
	"distreach/internal/oplog"
	"distreach/internal/qcache"
)

// cachedAnswer is the value stored per query key: the Boolean answer plus
// the exact distance for bounded queries.
type cachedAnswer struct {
	Answer  bool
	Dist    int64
	HasDist bool
}

// gwOptions configures a gateway beyond its coordinator.
type gwOptions struct {
	cacheCap    int
	timeout     time.Duration // per-request wire deadline; 0 = none
	maxInflight int           // backpressure: concurrent requests; 0 = default
	skew        float64       // auto-rebalance threshold; 0 = disabled
	seed        uint64        // rebalance partitioner seed base
	store       *oplog.Store  // durable oplog (-wal); nil = in-memory order only
	snapEvery   int           // checkpoint + log-truncate cadence in batches; 0 = never
	trace       bool          // distributed tracing: traced query frames + /trace endpoints
	slowQuery   time.Duration // dump traces slower than this to stderr; 0 = off

	// idxStats reads the reachability-index counters of the current
	// deployment; nil when the sites are remote (the gateway has no local
	// fragmentation handle, so /stats omits the section).
	idxStats func() fragment.ReachIndexStats
}

// defaultMaxInflight bounds concurrent query/update requests when the
// -maxinflight flag is left zero: enough for heavy multiplexed traffic,
// finite so a flood degrades into prompt 429s instead of collapse.
const defaultMaxInflight = 1024

// gateway serves the HTTP/JSON API over one multiplexing coordinator.
// The request counters live in the obs registry (ob.reg): /stats reads
// the same instruments GET /metrics renders.
type gateway struct {
	co      *netsite.Coordinator
	cache   *qcache.Cache[cachedAnswer]
	opts    gwOptions
	ob      *gwObs
	sem     chan struct{} // in-flight request slots (backpressure)
	queries *obs.Counter
	updates *obs.Counter

	rejected    *obs.Counter   // requests turned away with 429
	epoch       atomic.Uint64  // highest deployment epoch observed
	rebalances  *obs.Counter   // successful rebalance rounds
	rebalancing atomic.Bool    // single-flight latch for auto-rebalance
	syncing     atomic.Bool    // single-flight latch for catch-up replication
	syncs       *obs.Counter   // successful catch-up rounds
	snapping    atomic.Bool    // single-flight latch for checkpointing
	snapWG      sync.WaitGroup // the checkpoint in flight, joined by Close

	statsMu   sync.Mutex
	lastStats fragment.BalanceStats // latest balance seen in an update reply

	started time.Time
}

func newGateway(co *netsite.Coordinator, o gwOptions) *gateway {
	if o.maxInflight <= 0 {
		o.maxInflight = defaultMaxInflight
	}
	if o.store != nil {
		co.UseSequencer(oplog.NewDurableSequencer(o.store))
	}
	ob := newGwObs(co)
	g := &gateway{
		co:         co,
		cache:      qcache.New[cachedAnswer](o.cacheCap),
		opts:       o,
		ob:         ob,
		sem:        make(chan struct{}, o.maxInflight),
		queries:    ob.reg.Counter("gateway_queries_total", "Queries served (cache hits included)."),
		updates:    ob.reg.Counter("gateway_updates_total", "Update batches applied."),
		rejected:   ob.reg.Counter("gateway_rejected_total", "Requests turned away with 429 under backpressure."),
		rebalances: ob.reg.Counter("gateway_rebalances_total", "Successful rebalance rounds."),
		syncs:      ob.reg.Counter("gateway_syncs_total", "Successful catch-up replication rounds."),
		started:    time.Now(),
	}
	ob.bindGateway(g)
	if o.trace {
		ob.armTracing(co, o.slowQuery)
	}
	return g
}

func (g *gateway) routes() *http.ServeMux {
	mux := http.NewServeMux()
	for _, class := range []string{"reach", "reachwithin", "reachregex"} {
		mux.HandleFunc("GET /"+class, g.limit(g.handleQuery(class)))
	}
	mux.HandleFunc("POST /batch", g.limit(g.handleBatch))
	mux.HandleFunc("POST /update", g.limit(g.handleUpdate))
	mux.HandleFunc("POST /rebalance", g.handleRebalance)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.Handle("GET /metrics", g.ob.reg.Handler())
	mux.HandleFunc("GET /trace/{id}", g.handleTrace)
	mux.HandleFunc("GET /traces", g.handleTraces)
	mux.HandleFunc("GET /guarantees", g.handleGuarantees)
	mux.HandleFunc("POST /flush", g.handleFlush)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// limit is the backpressure middleware: each query or update occupies one
// in-flight slot for its duration; when every slot is taken the request is
// turned away immediately with 429 and a Retry-After hint, so a traffic
// flood degrades into cheap rejections instead of piling goroutines onto
// saturated site connections. /stats, /flush and /healthz stay exempt —
// an operator must be able to look at a saturated gateway.
func (g *gateway) limit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
			h(w, r)
		default:
			g.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "gateway saturated; retry later"})
		}
	}
}

// noteEpoch keeps the gateway's view of the deployment epoch fresh from
// whatever wire traffic happens to flow (queries and updates both carry
// it).
func (g *gateway) noteEpoch(epoch uint64) {
	for {
		cur := g.epoch.Load()
		if epoch <= cur || g.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// wireCtx derives the context for one request's wire round trips,
// applying the gateway's per-request deadline when configured.
func (g *gateway) wireCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if g.opts.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, g.opts.timeout)
}

// wireError maps a failed wire round to an HTTP status: 504 when the
// gateway's deadline expired (a stalled site must not hang the client),
// 503 + Retry-After for a state split (a replica serving a different
// epoch or update-log position — e.g. a site restarted from stale files;
// the gateway kicks off catch-up replication in the background, so
// retries succeed once every replica converges), 502 for everything else.
func (g *gateway) wireError(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, netsite.ErrEpochSplit):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		go g.heal()
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// heal is the self-repair path (single-flight): catch-up replication
// brings every replica to the same update-log position — streaming the
// write-ahead log's suffix, or a whole snapshot, to the ones that fell
// behind — then realigns epochs with a forced rebalance if they still
// diverge. Works without a -wal store too: the log suffix is then
// unavailable, but a snapshot fetched from the most advanced replica
// covers any gap.
func (g *gateway) heal() {
	if !g.syncing.CompareAndSwap(false, true) {
		return
	}
	defer g.syncing.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o := netsite.SyncOptions{Seed: g.opts.seed}
	if g.opts.store != nil {
		o.Log = g.opts.store.Log()
		o.Snapshot = func() (*oplog.Snapshot, bool) {
			s, ok, err := g.opts.store.LoadSnapshot()
			return s, ok && err == nil
		}
	}
	rep, err := g.co.SyncReplicas(ctx, o)
	if err != nil {
		return // the next split re-triggers; a dead site heals when redialed
	}
	g.syncs.Add(1)
	if rep.Rebalanced {
		// Fragment IDs changed meaning across the epoch switch; cached
		// answers keyed on the old fragmentation must go.
		g.cache.Flush()
		g.rebalances.Add(1)
	}
	g.noteEpoch(rep.Epoch)
}

// maybeSnapshot checkpoints the deployment when the write-ahead log has
// grown -snapshot-every batches past the last snapshot: a verified
// snapshot is fetched from the most advanced replica, saved, and the log
// truncated behind it (single-flight, in the background).
func (g *gateway) maybeSnapshot() {
	st := g.opts.store
	if st == nil || g.opts.snapEvery <= 0 {
		return
	}
	if g.co.Sequencer().LSN() < st.SnapshotLSN()+uint64(g.opts.snapEvery) {
		return
	}
	if !g.snapping.CompareAndSwap(false, true) {
		return
	}
	g.snapWG.Add(1)
	go func() {
		defer g.snapWG.Done()
		defer g.snapping.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		snap, err := g.co.FetchSnapshot(ctx)
		if err != nil {
			return
		}
		if err := st.SaveSnapshot(snap); err != nil {
			fmt.Fprintf(os.Stderr, "serve: snapshot at LSN %d failed: %v\n", snap.LSN, err)
		}
	}()
}

// Close waits for the checkpoint in flight, if any, so that nothing writes
// into the store after it returns. Call it once the HTTP server has stopped
// and before the store and the coordinator close.
func (g *gateway) Close() {
	g.snapWG.Wait()
}

// wireJSON mirrors netsite.WireStats for responses served off the wire.
type wireJSON struct {
	BytesSent         int64 `json:"bytes_sent"`
	BytesReceived     int64 `json:"bytes_received"`
	FramesSent        int64 `json:"frames_sent"`
	FramesReceived    int64 `json:"frames_received"`
	RoundTripMicros   int64 `json:"round_trip_us"`
	FirstAnswerMicros int64 `json:"first_answer_us"`
	EarlyTerminated   bool  `json:"early_terminated,omitempty"`
	RowsReplies       int64 `json:"rows_replies,omitempty"` // sites that shipped their boundary rows, in full or as a delta
	RowsDeltas        int64 `json:"rows_deltas,omitempty"`  // those that shipped a delta
}

func toWireJSON(st netsite.WireStats) *wireJSON {
	return &wireJSON{
		BytesSent:         st.BytesSent,
		BytesReceived:     st.BytesReceived,
		FramesSent:        st.FramesSent,
		FramesReceived:    st.FramesReceived,
		RoundTripMicros:   st.RoundTrip.Microseconds(),
		FirstAnswerMicros: st.FirstAnswer.Microseconds(),
		EarlyTerminated:   st.EarlyTerminated,
		RowsReplies:       st.RowsReplies,
		RowsDeltas:        st.RowsDeltas,
	}
}

type queryResponse struct {
	Query   string    `json:"query"`
	Answer  bool      `json:"answer"`
	Dist    *int64    `json:"dist,omitempty"`
	Cached  bool      `json:"cached"`
	TraceID string    `json:"trace_id,omitempty"` // hex; look up via GET /trace/{id}
	Wire    *wireJSON `json:"wire,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// nodeParam parses one required node-ID query parameter.
func nodeParam(r *http.Request, name string) (graph.NodeID, bool) {
	v, err := strconv.ParseUint(r.URL.Query().Get(name), 10, 32)
	if err != nil {
		return 0, false
	}
	return graph.NodeID(v), true
}

func badRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
}

// parsedQuery is one validated query: what travels the wire, the key its
// answer is cached under, and the label responses echo.
type parsedQuery struct {
	bq    netsite.BatchQuery
	key   string
	label string
}

// resolved is one query's outcome from resolve.
type resolved struct {
	cachedAnswer
	cached bool
	slot   int // index of the query's wire round answer; unused when cached
}

// response renders one outcome under the label its query echoes.
func (o resolved) response(label string) queryResponse {
	resp := queryResponse{Query: label, Answer: o.Answer, Cached: o.cached}
	if o.HasDist {
		d := o.Dist
		resp.Dist = &d
	}
	return resp
}

// resolve is the one query path behind every endpoint — a GET is a batch
// of one. It answers what it can from the cache, ships the distinct
// misses as ONE wire round (duplicate keys travel and evaluate once), and
// fills the cache from the round. misses counts the queries that went
// over the wire; st is that round's stats, zero when nothing missed.
func (g *gateway) resolve(ctx context.Context, qs []parsedQuery) (out []resolved, misses int, st netsite.WireStats, err error) {
	out = make([]resolved, len(qs))
	var wireQs []netsite.BatchQuery
	var slotByKey map[string]int
	// The flush generation is snapshotted first: if a POST /flush races the
	// round trip, the computed answers must not be re-inserted — they may
	// describe the deployment the flush just invalidated.
	gen := g.cache.Generation()
	for i, q := range qs {
		g.queries.Add(1)
		if ans, hit := g.cache.Get(q.key); hit {
			out[i] = resolved{cachedAnswer: ans, cached: true}
			continue
		}
		slot, dup := slotByKey[q.key]
		if !dup {
			slot = len(wireQs)
			if slotByKey == nil {
				slotByKey = make(map[string]int)
			}
			slotByKey[q.key] = slot
			wireQs = append(wireQs, q.bq)
		}
		out[i].slot = slot
	}
	if len(wireQs) == 0 {
		return out, 0, st, nil
	}
	ctx, cancel := g.wireCtx(ctx)
	defer cancel()
	res, st, err := g.co.BatchContext(ctx, wireQs)
	if err != nil {
		return nil, 0, st, err
	}
	g.noteEpoch(st.Epoch)
	for i, q := range qs {
		if out[i].cached {
			continue
		}
		a := res[out[i].slot]
		ans := cachedAnswer{Answer: a.Answer}
		if q.bq.Class == netsite.ClassDist {
			// The distance is exact only when within the bound; otherwise it
			// is the solver's infinity sentinel, which callers should not see.
			ans.Dist, ans.HasDist = a.Dist, a.Answer
		}
		g.cache.PutIfGeneration(q.key, ans, gen, a.Touched)
		out[i].cachedAnswer = ans
	}
	return out, len(wireQs), st, nil
}

// serveOne resolves one parsed GET query and renders its response.
func (g *gateway) serveOne(w http.ResponseWriter, r *http.Request, class string, q parsedQuery) {
	start := time.Now()
	out, _, st, err := g.resolve(r.Context(), []parsedQuery{q})
	if err != nil {
		g.wireError(w, err)
		return
	}
	g.ob.observeQuery(class, start, out[0].cached, st)
	resp := out[0].response(q.label)
	if !out[0].cached {
		resp.Wire = toWireJSON(st)
		if st.TraceID != 0 {
			resp.TraceID = strconv.FormatUint(st.TraceID, 16)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery serves GET /reach, /reachwithin and /reachregex: the query
// class, with s and t, the bound l and the expression r from the URL.
func (g *gateway) handleQuery(class string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, ok := nodeParam(r, "s")
		t, ok2 := nodeParam(r, "t")
		if !ok || !ok2 {
			badRequest(w, class+" needs numeric s and t")
			return
		}
		var l *int
		if n, err := strconv.Atoi(r.URL.Query().Get("l")); err == nil {
			l = &n
		}
		q, err := parseQuery(class, s, t, l, r.URL.Query().Get("r"))
		if err != nil {
			badRequest(w, err.Error())
			return
		}
		g.serveOne(w, r, class, q)
	}
}

// parseQuery is the one parser of a query, for the GET endpoints and POST
// /batch alike: from its class ("reach", "reachwithin" or "reachregex"),
// endpoints, bound l (reachwithin's; nil: none) and expression r
// (reachregex's), it builds what travels the wire, the key the answer is
// cached under, and the label the response echoes, which prints the nodes
// as numbers however the request spelled them.
func parseQuery(class string, s, t graph.NodeID, l *int, r string) (parsedQuery, error) {
	switch class {
	case "reach":
		return parsedQuery{
			bq:    netsite.BatchQuery{Class: netsite.ClassReach, S: s, T: t},
			key:   qcache.ReachKey(s, t),
			label: fmt.Sprintf("qr(%d,%d)", s, t),
		}, nil
	case "reachwithin":
		if l == nil || *l < 0 {
			return parsedQuery{}, errors.New("reachwithin needs numeric bound l >= 0")
		}
		return parsedQuery{
			bq:    netsite.BatchQuery{Class: netsite.ClassDist, S: s, T: t, L: *l},
			key:   qcache.DistKey(s, t, *l),
			label: fmt.Sprintf("qbr(%d,%d,%d)", s, t, *l),
		}, nil
	case "reachregex":
		if r == "" {
			return parsedQuery{}, errors.New("reachregex needs expression r")
		}
		a, err := distreach.CompileRegex(r)
		if err != nil {
			return parsedQuery{}, err
		}
		return parsedQuery{
			bq:    netsite.BatchQuery{Class: netsite.ClassRPQ, S: s, T: t, A: a},
			key:   qcache.RPQKey(s, t, r),
			label: fmt.Sprintf("qrr(%d,%d,%s)", s, t, r),
		}, nil
	}
	return parsedQuery{}, fmt.Errorf("unknown class %q (want reach, reachwithin or reachregex)", class)
}

// maxBatchQueries bounds one POST /batch request; bigger workloads should
// split into several batches (each still one frame per site).
const maxBatchQueries = 4096

// maxBatchBody bounds the POST /batch request body, so a hostile client
// cannot make the JSON decoder allocate an unbounded query slice before
// the maxBatchQueries check even runs.
const maxBatchBody = 4 << 20

// batchQueryJSON is one query of a POST /batch request. Class selects the
// query class and which extra fields apply: "reach" (s, t), "reachwithin"
// (s, t, l) or "reachregex" (s, t, r).
type batchQueryJSON struct {
	Class string  `json:"class"`
	S     *uint32 `json:"s"`
	T     *uint32 `json:"t"`
	L     *int    `json:"l,omitempty"`
	R     string  `json:"r,omitempty"`
}

type batchRequestJSON struct {
	Queries []batchQueryJSON `json:"queries"`
}

// batchResponseJSON answers a whole batch: one entry per query in request
// order, plus the single wire round's stats. Misses counts the queries
// that actually went over the wire — cached answers are stripped from the
// wire batch before it is posted.
type batchResponseJSON struct {
	Answers []queryResponse `json:"answers"`
	Misses  int             `json:"misses"`
	TraceID string          `json:"trace_id,omitempty"` // hex; the one wire round's trace
	Wire    *wireJSON       `json:"wire,omitempty"`
}

// handleBatch serves POST /batch: the whole request is validated, then
// resolved as one batch (one frame per site however many queries missed)
// and rendered in request order.
func (g *gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req batchRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		badRequest(w, "batch: malformed JSON: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, "batch: empty query list")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		badRequest(w, fmt.Sprintf("batch: %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries))
		return
	}

	// Validate and compile the whole batch before touching any serving
	// state, so a rejected batch leaves /stats and the cache's hit/miss
	// counters exactly as they were.
	parsed := make([]parsedQuery, len(req.Queries))
	for i, q := range req.Queries {
		if q.S == nil || q.T == nil {
			badRequest(w, fmt.Sprintf("batch query %d: needs numeric s and t", i))
			return
		}
		p, err := parseQuery(q.Class, graph.NodeID(*q.S), graph.NodeID(*q.T), q.L, q.R)
		if err != nil {
			badRequest(w, fmt.Sprintf("batch query %d: %v", i, err))
			return
		}
		parsed[i] = p
	}

	out, misses, st, err := g.resolve(r.Context(), parsed)
	if err != nil {
		g.wireError(w, err)
		return
	}
	g.ob.observeQuery("batch", start, misses == 0, st)
	resp := batchResponseJSON{Answers: make([]queryResponse, len(out)), Misses: misses}
	for i := range out {
		resp.Answers[i] = out[i].response(parsed[i].label)
	}
	if misses > 0 {
		resp.Wire = toWireJSON(st)
		if st.TraceID != 0 {
			resp.TraceID = strconv.FormatUint(st.TraceID, 16)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// updateOpJSON is one mutation of a POST /update batch. Op selects the
// kind and which fields apply: "insert"/"delete" (edge: u, v),
// "insertnode" (label, optional frag) or "deletenode" (u).
type updateOpJSON struct {
	Op    string  `json:"op"`
	U     *uint32 `json:"u,omitempty"`
	V     *uint32 `json:"v,omitempty"`
	Label string  `json:"label,omitempty"`
	Frag  *int    `json:"frag,omitempty"`
}

// updateRequestJSON is the body of POST /update: either the legacy
// single-edge form (op/u/v at the top level) or a transactional batch in
// "ops" — one wire frame, one write lock, one unioned dirty set.
type updateRequestJSON struct {
	updateOpJSON
	Ops []updateOpJSON `json:"ops,omitempty"`
}

// maxUpdateOps bounds one POST /update batch.
const maxUpdateOps = 1024

// balanceJSON mirrors fragment.BalanceStats for /update, /rebalance and
// /stats responses.
type balanceJSON struct {
	Fragments  int     `json:"fragments"`
	MaxSize    int     `json:"max_size"`
	MinSize    int     `json:"min_size"`
	MeanSize   float64 `json:"mean_size"`
	Skew       float64 `json:"skew"`
	Vf         int     `json:"vf"`
	CrossEdges int     `json:"cross_edges"`
	Epoch      uint64  `json:"epoch"`
}

func toBalanceJSON(bs fragment.BalanceStats) *balanceJSON {
	return &balanceJSON{
		Fragments:  bs.Fragments,
		MaxSize:    bs.MaxSize,
		MinSize:    bs.MinSize,
		MeanSize:   bs.MeanSize(),
		Skew:       bs.Skew(),
		Vf:         bs.Vf,
		CrossEdges: bs.CrossEdges,
		Epoch:      bs.Epoch,
	}
}

// updateResponseJSON reports the effect of one update batch: whether the
// graph changed, which fragments were dirtied, the IDs handed to inserted
// nodes, how many cached answers were evicted (entries whose evaluation
// touched none of the dirtied fragments keep serving hits), and the
// post-update balance of the deployment.
type updateResponseJSON struct {
	Changed bool         `json:"changed"`
	Dirty   []int        `json:"dirty"`
	NewIDs  []uint32     `json:"new_ids,omitempty"`
	Evicted int          `json:"evicted"`
	LSN     uint64       `json:"lsn"`
	Missed  []int        `json:"missed,omitempty"`
	Balance *balanceJSON `json:"balance,omitempty"`
	Wire    *wireJSON    `json:"wire"`
}

// parseUpdateOps converts the JSON body into wire ops.
func parseUpdateOps(req updateRequestJSON) ([]netsite.Op, error) {
	raw := req.Ops
	if len(raw) == 0 {
		raw = []updateOpJSON{req.updateOpJSON}
	}
	if len(raw) > maxUpdateOps {
		return nil, fmt.Errorf("update: %d ops exceeds the limit of %d", len(raw), maxUpdateOps)
	}
	ops := make([]netsite.Op, 0, len(raw))
	for i, o := range raw {
		switch o.Op {
		case "insert", "delete":
			if o.U == nil || o.V == nil {
				return nil, fmt.Errorf("update op %d: %s needs numeric u and v", i, o.Op)
			}
			kind := netsite.OpInsertEdge
			if o.Op == "delete" {
				kind = netsite.OpDeleteEdge
			}
			ops = append(ops, netsite.Op{Kind: kind, U: graph.NodeID(*o.U), V: graph.NodeID(*o.V)})
		case "insertnode":
			frag := -1
			if o.Frag != nil {
				frag = *o.Frag
			}
			ops = append(ops, netsite.Op{Kind: netsite.OpInsertNode, Label: o.Label, Frag: frag})
		case "deletenode":
			if o.U == nil {
				return nil, fmt.Errorf("update op %d: deletenode needs numeric u", i)
			}
			ops = append(ops, netsite.Op{Kind: netsite.OpDeleteNode, U: graph.NodeID(*o.U)})
		default:
			return nil, fmt.Errorf("update op %d: unknown op %q (want insert, delete, insertnode or deletenode)", i, o.Op)
		}
	}
	return ops, nil
}

// handleUpdate serves POST /update: it routes the mutation batch to the
// sites as one transactional frame, evicts exactly the cached answers
// whose evaluation touched a dirtied fragment — the per-fragment
// invalidation that replaces a wholesale flush on live graphs — and, when
// the reply's balance stats cross the configured skew threshold, kicks
// off an automatic rebalance in the background.
func (g *gateway) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		badRequest(w, "update: malformed JSON: "+err.Error())
		return
	}
	ops, err := parseUpdateOps(req)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	g.updates.Add(1)
	ctx, cancel := g.wireCtx(r.Context())
	defer cancel()
	res, st, err := g.co.ApplyContext(ctx, ops)
	if err != nil {
		// The update frame may already have reached (some) sites before the
		// round failed or timed out, so the cache can no longer be trusted:
		// flush conservatively rather than serve pre-update answers forever.
		g.cache.Flush()
		g.wireError(w, err)
		return
	}
	g.noteEpoch(res.Epoch)
	g.statsMu.Lock()
	g.lastStats = res.Stats
	g.statsMu.Unlock()
	g.ob.setDeployment(res.Stats)
	evicted := 0
	if res.Changed {
		evicted = g.cache.EvictFragments(res.Dirty)
	}
	dirty := res.Dirty
	if dirty == nil {
		dirty = []int{}
	}
	newIDs := make([]uint32, 0, len(res.NewIDs))
	for _, id := range res.NewIDs {
		newIDs = append(newIDs, uint32(id))
	}
	writeJSON(w, http.StatusOK, updateResponseJSON{
		Changed: res.Changed,
		Dirty:   dirty,
		NewIDs:  newIDs,
		Evicted: evicted,
		LSN:     res.LSN,
		Missed:  res.Missed,
		Balance: toBalanceJSON(res.Stats),
		Wire:    toWireJSON(st),
	})
	// A laggard missed this (sequenced, logged) batch — catch it up in the
	// background so queries stop splitting as soon as possible.
	if len(res.Missed) > 0 {
		go g.heal()
	}
	g.maybeSnapshot()
	// Auto-rebalance: the update reply carried the deployment's balance
	// for free; if churn has skewed it past the threshold, restore the
	// paper's |Fm|/|Vf| parameters in the background (single-flight).
	if g.opts.skew > 0 && res.Stats.Skew() >= g.opts.skew {
		go g.rebalance()
	}
}

// rebalanceResponseJSON reports a rebalance round.
type rebalanceResponseJSON struct {
	Rebalanced bool         `json:"rebalanced"`
	Epoch      uint64       `json:"epoch"`
	Balance    *balanceJSON `json:"balance"`
}

// errRebalanceInFlight reports that another rebalance round is already
// running; the caller's intent is being served by it.
var errRebalanceInFlight = errors.New("rebalance already in flight")

// rebalance runs one re-fragmentation round (single-flight: concurrent
// triggers collapse into one) and flushes the answer cache — fragment IDs
// mean different things across epochs, so per-fragment eviction cannot
// carry over; the generation bump stops in-flight rounds from
// resurrecting pre-rebalance answers.
func (g *gateway) rebalance() (netsite.RebalanceResult, error) {
	if !g.rebalancing.CompareAndSwap(false, true) {
		return netsite.RebalanceResult{}, errRebalanceInFlight
	}
	defer g.rebalancing.Store(false)
	// A rebuild of a large deployment outlives any per-query deadline;
	// give the round its own generous budget.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var res netsite.RebalanceResult
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		epoch := g.epoch.Load() + 1
		res, _, err = g.co.RebalanceContext(ctx, epoch, g.opts.seed+epoch)
		if err != nil {
			if errors.Is(err, netsite.ErrReplicaDiverged) {
				// The epoch may not have been fresh for every replica (one
				// kept an older build instead of rebuilding). Sync to the
				// highest epoch the replies reported and force a strictly
				// higher one where everyone rebuilds: if the fingerprints
				// still differ then, the divergence is real — a replica's
				// graph state is stale and needs re-seeding.
				g.noteEpoch(epoch)
				g.noteEpoch(res.Epoch)
				continue
			}
			return res, err
		}
		g.noteEpoch(res.Epoch)
		if res.Applied {
			g.cache.Flush()
			g.rebalances.Add(1)
			g.statsMu.Lock()
			g.lastStats = res.Stats
			g.statsMu.Unlock()
			g.ob.setDeployment(res.Stats)
			return res, nil
		}
		// The deployment was already past the requested epoch (another
		// gateway rebalanced): sync and try once more.
	}
	return res, err
}

// handleRebalance serves POST /rebalance: the manual trigger for the same
// re-fragmentation the skew threshold fires automatically. Colliding with
// an in-flight round is not a failure — the deployment is rebalancing as
// asked — so that maps to 409 + Retry-After rather than a gateway error.
func (g *gateway) handleRebalance(w http.ResponseWriter, r *http.Request) {
	res, err := g.rebalance()
	if errors.Is(err, errRebalanceInFlight) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	if err != nil {
		g.wireError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rebalanceResponseJSON{
		Rebalanced: res.Applied,
		Epoch:      res.Epoch,
		Balance:    toBalanceJSON(res.Stats),
	})
}

// lsnLag reports the sequencer's update-log position, every replica's, and
// the largest distance any replica trails it by.
func (g *gateway) lsnLag() (lsn uint64, replicas []uint64, maxLag uint64) {
	lsn = g.co.Sequencer().LSN()
	replicas = g.co.ReplicaLSNs()
	for _, l := range replicas {
		if l < lsn && lsn-l > maxLag {
			maxLag = lsn - l
		}
	}
	return lsn, replicas, maxLag
}

func (g *gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := g.cache.Stats()
	g.statsMu.Lock()
	last := g.lastStats
	g.statsMu.Unlock()
	var balance *balanceJSON
	if last.Fragments > 0 {
		balance = toBalanceJSON(last)
	}
	lsn, replicaLSNs, maxLag := g.lsnLag()
	durability := map[string]any{
		"lsn":          lsn,
		"replica_lsns": replicaLSNs,
		"max_lag":      maxLag,
		"syncs":        g.syncs.Value(),
	}
	if st := g.opts.store; st != nil {
		segs, bytes := st.Log().Stats()
		durability["wal"] = map[string]any{
			"snapshot_lsn":  st.SnapshotLSN(),
			"segments":      segs,
			"segment_bytes": bytes,
			"fsyncs":        st.Log().SyncCount(),
		}
	}
	var reachIndex map[string]any
	if g.opts.idxStats != nil {
		st := g.opts.idxStats()
		reachIndex = map[string]any{
			"enabled":           st.Enabled,
			"budget_bytes":      st.BudgetBytes,
			"label_bytes":       st.LabelBytes,
			"fragments_indexed": st.Fragments,
			"hits":              st.Hits,
			"fallbacks":         st.Fallbacks,
			"hit_rate":          st.HitRate(),
			"rebuilds":          st.Rebuilds,
			"last_rebuild_us":   st.LastBuild.Microseconds(),
			"total_rebuild_us":  st.TotalBuild.Microseconds(),
		}
	}
	rowsReplies, rowsDeltas := g.co.RowsTotals()
	ast := g.co.AnytimeStats()
	anytime := map[string]any{
		"enabled":            g.co.Anytime(),
		"early_terminations": ast.EarlyTerminations,
		// Per-site straggler histogram: rounds decided before that site's
		// reply arrived. The site dominating it is the one slowing full
		// rounds down.
		"stragglers": ast.Stragglers,
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"queries":        g.queries.Value(),
		"updates":        g.updates.Value(),
		"epoch":          g.epoch.Load(),
		"rebalances":     g.rebalances.Value(),
		"uptime_seconds": int64(time.Since(g.started).Seconds()),
		"anytime":        anytime,
		"backpressure": map[string]any{
			"max_inflight": cap(g.sem),
			"inflight":     len(g.sem),
			"rejected":     g.rejected.Value(),
		},
		"durability": durability,
		"balance":    balance,
		// Replies that shipped a site's boundary rows, in full or as a
		// delta against the coordinator's copy, and the deltas among them.
		"rows": map[string]any{
			"replies": rowsReplies,
			"deltas":  rowsDeltas,
		},
		"reachindex": reachIndex,
		"cache": map[string]any{
			"hits":      hits,
			"misses":    misses,
			"entries":   g.cache.Len(),
			"evictions": g.cache.Evictions(),
		},
	})
}

func (g *gateway) handleFlush(w http.ResponseWriter, r *http.Request) {
	g.cache.Flush()
	writeJSON(w, http.StatusOK, map[string]string{"status": "flushed"})
}
