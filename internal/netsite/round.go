package netsite

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"distreach/internal/graph"
	"distreach/internal/obs"
)

// The query round (coordinator side). Every query — a batch of one or of
// many — runs through queryRound: post the one request frame to each site
// the attempt routes it to (route; every site unless batch.go's routing
// lets it skip some), take each posted site's one reply as it arrives, hand
// its body to the round's batchSolver. There is one reply per request, so
// the demultiplexer delivers it straight into the attempt's one channel and
// a round starts no goroutine of its own. The first reply of an attempt
// that skipped sites vouches for them: the ones it names stale or as owners
// of the batch's nodes are posted then, in the same attempt, and the rest
// are opened from the rows the coordinator holds. No site is posted twice in
// one attempt. With early decision on (anytime on and every query a reach
// query) the round returns the instant the solver reports every query
// decided by the replies in hand, cancelling the stragglers with 'C'
// frames; otherwise ("strict": anytime off, or a round with distance or
// regex queries) the same loop waits for every posted site.
//
// Early decision is sound on any subset of the replies because the
// equations are monotone: each reply opens its site's rows in the
// boundary (boundary.go) to every query's walk from s, which resumes from
// the nodes it has seen, and a query is decided the moment its walk meets a
// true equation — a closed chain of sound implications that a site not yet
// heard from cannot retract. A walk that ends without one proves false only
// once every site has replied or been vouched for.
//
// Each site's request names the copy of its boundary rows the coordinator
// holds at that instant (batch.go): the attempt captures every site's copy
// before it posts, and that copy is what a rows-free reply from the site —
// or a vouch for it — stands for, never a copy stored later by a
// concurrent round.
//
// Round discipline: the first reply of an attempt pins its (epoch, LSN);
// a reply from a different state aborts the attempt (cancelling all posted
// sites) and retries with backoff. Partial answers are Boolean equations
// over the fragmentation and graph the site evaluated on; composing them
// across two fragmentations (or across an update that landed on only some
// replicas) would be meaningless, so equations only ever accumulate from one
// consistent deployment state.

// Epoch-split retry tuning: how often a query round is retried when its
// sites answered from different states, and the backoff between attempts.
// The backoff matters: an immediate retry lands inside the same rebalance
// or update burst that split the round, while a short exponential pause
// lets the new state finish propagating to every site's worker.
const (
	epochRetries      = 8
	epochRetryBackoff = time.Millisecond
)

// queryRound runs one query round to a settled outcome: attempts are
// repeated, with backoff, while sites answer from different deployment
// states. queries is the request's shared section (appendQueries), encoded
// once for the round. sol is reset before each attempt and holds the
// settled attempt's equations on return. The stats accumulate across
// attempts — retried frames and bytes are real traffic.
func (c *Coordinator) queryRound(ctx context.Context, queries []byte, sol *batchSolver, qt *qtrace) (WireStats, error) {
	var total WireStats
	backoff := epochRetryBackoff
	for attempt := 0; ; attempt++ {
		rqt := qt
		if qt != nil {
			roundID := qt.b.StartSpan(qt.par, "round", obs.Attr{Key: "attempt", Val: strconv.Itoa(attempt)})
			rqt = qt.child(roundID)
		}
		sol.qt = rqt
		sol.reset()
		st, split, err := c.queryAttempt(ctx, queries, sol, rqt)
		if qt != nil {
			qt.b.End(rqt.par)
		}
		total.add(st)
		if err != nil || !split {
			return total, err
		}
		if attempt+1 >= epochRetries {
			return total, fmt.Errorf("%w (after %d attempts)", ErrEpochSplit, attempt+1)
		}
		select {
		case <-ctx.Done():
			return total, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// queryAttempt posts the request to the sites route picks and delivers
// each posted site's reply, in arrival order, to sol; the first reply's word
// on the skipped sites posts the ones it names and vouches for the rest.
// When sol reports the round decided before every posted site replied, the
// attempt cancels the stragglers and returns early. A reply from a
// mismatched (epoch, LSN), or one naming a site the first reply vouched
// for, aborts the attempt with split set (queryRound retries); site errors,
// connection losses, a reply of any kind but 'R' and context cancellation
// abort it with an error. Whatever the exit, no pending-table entry
// outlives the attempt: every path drops (and usually cancels) the
// stragglers, and late frames are drained by the read loop.
//
// With qt non-nil the request carries the trace context naming a per-site
// rpc span, and the spans each site piggybacks on its reply are grafted
// into qt's trace anchored at this coordinator's post instant — no site
// wall clock is ever trusted.
func (c *Coordinator) queryAttempt(ctx context.Context, queries []byte, sol *batchSolver, qt *qtrace) (st WireStats, split bool, err error) {
	id := c.nextID.Add(1)
	start := time.Now()
	k := len(c.conns)
	for i := range c.rows {
		sol.held[i] = c.rows[i].Load()
	}
	first, instance, skip := c.route(sol)
	// Per site: posted (it holds a pending entry for id), vouched for by
	// the first reply, replied. A site is never both posted and vouched.
	posted := make([]bool, k)
	vouched := make([]bool, k)
	replied := make([]bool, k)
	nPosted, nReplied := 0, 0
	// Per-site audit/trace bookkeeping: the rpc span each request named,
	// its post instant (the anchor remote spans attach under), and the
	// posts, response volume and site-measured eval time the auditor checks.
	var rpcIDs []uint64
	var anchors []time.Time
	posts := make([]int, k)
	respBytes := make([]int64, k)
	evalNs := make([]int64, k)
	if qt != nil {
		rpcIDs = make([]uint64, k)
		anchors = make([]time.Time, k)
	}

	// One frame per site at most: the demultiplexer never blocks on a round
	// that has stopped listening.
	replies := make(chan siteFrame, k)

	// settle closes the attempt's books on every exit but a full round:
	// posted sites whose reply has not arrived are cancelled (and blamed as
	// stragglers when the round was decided without them).
	settle := func(early bool) {
		for i, sc := range c.conns {
			if !posted[i] || replied[i] {
				continue
			}
			if qt != nil {
				qt.b.End(rpcIDs[i], obs.Attr{Key: "cancelled", Val: "true"})
			}
			if n := sc.cancel(id); n > 0 {
				st.BytesSent += int64(n)
				st.CancelFrames++
				c.any.cancels.Add(1)
			}
			if early {
				c.any.stragglers[i].Add(1)
			}
		}
		st.RoundTrip = time.Since(start)
	}
	fail := func(err error) (WireStats, bool, error) {
		settle(false)
		return st, false, err
	}
	// post sends site i its request: its own head — the tag of the rows
	// the attempt holds for it, else the instance a skip section in shared
	// stands on, and its rpc span — then the shared section.
	post := func(i int, shared []byte, instance uint64) error {
		h := batchHeader{instance: instance}
		if held := sol.held[i]; held != nil {
			h.instance, h.held, h.gen = held.tag.instance, true, held.tag.gen
		}
		if qt != nil {
			rpcIDs[i] = qt.b.StartSpan(qt.par, "rpc", obs.Attr{Key: "site", Val: strconv.Itoa(i)})
			h.traced, h.traceID, h.span = true, qt.id, rpcIDs[i]
			anchors[i] = time.Now()
		}
		buf := append(appendBatchHead(newFrame(batchHeadMax+len(shared)), h), shared...)
		n, err := c.conns[i].post(id, kindBatch, buf, replies)
		if err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
		posted[i] = true
		posts[i]++
		nPosted++
		st.BytesSent += int64(n)
		st.FramesSent++
		return nil
	}

	// The first wave carries the skip section; a site posted on a reply's
	// word gets the plain request, as it skips no one.
	firstShared := appendSkip(queries[:len(queries):len(queries)], skip)
	for i := range c.conns {
		if first == nil || first[i] {
			if err := post(i, firstShared, instance); err != nil {
				// The sites already posted would evaluate for nobody: fail
				// cancels them.
				return fail(err)
			}
		}
	}

	for {
		var f siteFrame
		select {
		case <-ctx.Done():
			return fail(fmt.Errorf("netsite: %w", ctx.Err()))
		case f = <-replies:
		}
		r := c.answerOf(f)
		if r.err != nil {
			return fail(r.err)
		}
		if nReplied == 0 {
			st.Epoch, st.LSN = r.epoch, r.lsn // the first reply pins the attempt
		} else if r.epoch != st.Epoch || r.lsn != st.LSN {
			settle(false)
			return st, true, nil
		}
		st.BytesReceived += int64(f.n)
		st.FramesReceived++
		replied[f.site] = true
		nReplied++
		// The site's spans (none when untraced) head the body.
		spans, body, derr := obs.DecodeWireSpans(r.payload)
		if derr != nil {
			return fail(fmt.Errorf("site %d: %w", f.site, derr))
		}
		if qt != nil {
			qt.b.AttachRemote(rpcIDs[f.site], f.site, anchors[f.site], spans)
		}
		for i := range spans {
			if spans[i].Name == "eval" {
				evalNs[f.site] = int64(spans[i].DurNs)
			}
		}
		respBytes[f.site] = int64(len(body))
		rep, derr := decodeBatchReply(body)
		if derr != nil {
			derr = fmt.Errorf("netsite: site %d reply: %w", f.site, derr)
		} else {
			derr = sol.feed(f.site, rep)
		}
		if qt != nil {
			// The rpc span says what the reply did about the site's rows.
			var attrs []obs.Attr
			if o := sol.rows[f.site]; o != obs.RowsNone {
				attrs = append(attrs, obs.Attr{Key: "rows", Val: o.String()})
			}
			qt.b.End(rpcIDs[f.site], attrs...)
		}
		if derr != nil {
			return fail(derr)
		}
		named, err := c.named(sol, f.site, rep)
		if err != nil {
			return fail(err)
		}
		for _, i := range named {
			switch {
			case posted[i]:
			case vouched[i]:
				settle(false) // the replies disagree on one (epoch, LSN)
				return st, true, nil
			default:
				if err := post(i, queries, 0); err != nil {
					return fail(err)
				}
			}
		}
		if nReplied == 1 {
			for _, i := range skip.sites {
				if !posted[i] {
					vouched[i] = true
					sol.vouch(i)
				}
			}
		}
		if !sol.advance() && nReplied < nPosted {
			continue
		}
		st.FirstAnswer = time.Since(start)
		st.RoundTrip = st.FirstAnswer
		if st.EarlyTerminated = nReplied < nPosted; st.EarlyTerminated {
			c.any.earlyTerms.Add(1)
			settle(true)
		}
		for _, o := range sol.rows {
			switch o {
			case obs.RowsPatch:
				st.RowsDeltas++
				fallthrough
			case obs.RowsMiss:
				st.RowsReplies++
			}
		}
		if st.RowsReplies > 0 {
			c.rowsReplies.Add(st.RowsReplies)
			c.rowsDeltas.Add(st.RowsDeltas)
		}
		// RespBytes is each reply's body, span section excluded.
		if a := c.getAuditor(); a != nil {
			a.Observe(obs.AuditRound{Posts: posts, RespBytes: respBytes, EvalNs: evalNs,
				Rows: sol.rows, Queries: len(sol.wire), RowsBacked: sol.rowsBacked})
		}
		return st, false, nil
	}
}

// route picks the sites an attempt posts to first — nil: every site — and
// the skip section their requests carry, with the fragmentation instance
// it stands on (batch.go, Routing). It skips only in a batch of reach and
// distance queries, when every rows tag the attempt holds names one
// fragmentation instance and the owner table knows, for that instance,
// every s and t of the batch; then the first wave is owner(s) ∪ owner(t)
// over the queries plus every site whose rows the attempt does not hold or
// knows to be stale.
func (c *Coordinator) route(sol *batchSolver) ([]bool, uint64, skipList) {
	if !sol.rowsBacked {
		return nil, 0, skipList{}
	}
	var instance uint64
	for _, h := range sol.held {
		switch {
		case h == nil:
		case instance == 0:
			instance = h.tag.instance
		case h.tag.instance != instance:
			return nil, 0, skipList{} // separate replicas, or a replacement half seen
		}
	}
	first := make([]bool, len(sol.held))
	if instance == 0 || !c.owners.mark(instance, sol.wire, first) {
		return nil, 0, skipList{}
	}
	var sk skipList
	for i, h := range sol.held {
		switch {
		case h == nil || h.stale:
			first[i] = true
		case !first[i]:
			sk.sites = append(sk.sites, i)
			sk.gens = append(sk.gens, h.tag.gen)
		}
	}
	if sk.sites == nil {
		return nil, 0, skipList{}
	}
	return first, instance, sk
}

// named reads what a posted site's reply says about the other sites — the
// skipped sites whose rows it found stale, and the owners of the s and t of
// every reach and distance query — and learns the owners, for the
// fragmentation instance the site evaluated on. It lists every site named.
func (c *Coordinator) named(sol *batchSolver, site int, rep batchReply) ([]int, error) {
	k := len(c.conns)
	nodes := make([]graph.NodeID, 0, len(rep.owners))
	for _, q := range sol.wire {
		if q.Class != ClassRPQ {
			nodes = append(nodes, q.S, q.T)
		}
	}
	if len(rep.owners) != len(nodes) {
		return nil, fmt.Errorf("netsite: site %d named %d owners for %d nodes", site, len(rep.owners), len(nodes))
	}
	out := make([]int, 0, len(rep.stale)+len(rep.owners))
	for _, i := range rep.stale {
		if i >= k {
			return nil, fmt.Errorf("netsite: site %d named site %d stale of %d", site, i, k)
		}
		out = append(out, i)
	}
	for _, o := range rep.owners {
		if o >= k {
			return nil, fmt.Errorf("netsite: site %d named site %d an owner of %d", site, o, k)
		}
		if o >= 0 {
			out = append(out, o)
		}
	}
	if len(nodes) > 0 {
		// A rows-backed reply stands on the site's current tag: the one it
		// shipped, or the one it matched.
		c.owners.learn(sol.held[site].tag.instance, nodes, rep.owners)
	}
	return out, nil
}

// ownerTable is the coordinator's node→site map, learned from the owners
// every reply names and kept for one fragmentation instance: an instance
// change drops it whole. Two bytes a node; 0 is unknown.
type ownerTable struct {
	mu       sync.RWMutex
	instance uint64
	sites    []uint16 // per node: its owner plus one
}

// maxOwnerNodes bounds the table: a node ID past it is never learned, and a
// query naming it posts to every site.
const maxOwnerNodes = 1 << 26

// mark sets first[o] for the owner o of every s and t of qs, and reports
// whether it knew them all under instance.
func (t *ownerTable) mark(instance uint64, qs []BatchQuery, first []bool) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.instance != instance {
		return false
	}
	for _, q := range qs {
		for _, v := range [2]graph.NodeID{q.S, q.T} {
			if int(v) >= len(t.sites) || t.sites[v] == 0 {
				return false
			}
			first[t.sites[v]-1] = true
		}
	}
	return true
}

// learn records owners[i] as the owner of nodes[i] under instance (-1:
// none, which is not recorded).
func (t *ownerTable) learn(instance uint64, nodes []graph.NodeID, owners []int) {
	t.mu.RLock()
	known := t.instance == instance
	for i := 0; known && i < len(nodes); i++ {
		v := int(nodes[i])
		known = owners[i] < 0 || v < len(t.sites) && int(t.sites[v]) == owners[i]+1
	}
	t.mu.RUnlock()
	if known {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.instance != instance {
		t.instance, t.sites = instance, nil
	}
	for i, v := range nodes {
		if owners[i] < 0 || v >= maxOwnerNodes {
			continue
		}
		if int(v) >= len(t.sites) {
			t.sites = append(t.sites, make([]uint16, int(v)+1-len(t.sites))...)
		}
		t.sites[v] = uint16(owners[i] + 1)
	}
}
