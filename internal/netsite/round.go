package netsite

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"distreach/internal/obs"
)

// The query round (coordinator side). Every query — a batch of one or of
// many — runs through queryRound: post the one request frame to every site,
// take each site's one reply as it arrives, hand its body to the round's
// batchSolver. There is one reply per request, so the demultiplexer
// delivers it straight into the attempt's one channel and a round starts no
// goroutine of its own. With early decision on (anytime on and every query
// a reach query) the round returns the instant the solver reports every
// query decided by the replies in hand, cancelling the stragglers with 'C'
// frames; otherwise ("strict": anytime off, or a round with distance or
// regex queries) the same loop waits for every site.
//
// Early decision is sound on any subset of the replies because the
// equations are monotone: each reply opens its site's rows in the
// boundary (boundary.go) to every query's walk from s, which resumes from
// the nodes it has seen, and a query is decided the moment its walk meets a
// true equation — a closed chain of sound implications that a site not yet
// heard from cannot retract. A walk that ends without one proves false only
// once every site has replied.
//
// Each site's request names the copy of its boundary rows the coordinator
// holds at that instant (batch.go): the attempt captures that copy, and it
// is what a rows-free reply from the site stands for — never a copy stored
// later by a concurrent round.
//
// Round discipline: the first reply of an attempt pins its (epoch, LSN);
// a reply from a different state aborts the attempt (cancelling all sites)
// and retries with backoff. Partial answers are Boolean equations over the
// fragmentation and graph the site evaluated on; composing them across two
// fragmentations (or across an update that landed on only some replicas)
// would be meaningless, so equations only ever accumulate from one
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
// states. sol is reset before each attempt and holds the settled
// attempt's equations on return. The stats accumulate across attempts —
// retried frames and bytes are real traffic.
func (c *Coordinator) queryRound(ctx context.Context, payload []byte, sol *batchSolver, qt *qtrace) (WireStats, error) {
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
		st, split, err := c.queryAttempt(ctx, payload, sol, rqt)
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

// queryAttempt posts the request to every site and delivers each site's
// reply, in arrival order, to sol. When sol reports the round decided
// before every reply arrived, the attempt cancels the stragglers and
// returns early. A reply from a mismatched (epoch, LSN) aborts the attempt
// with split set (queryRound retries); site errors, connection losses, a
// reply of any kind but 'R' and context cancellation abort it with an
// error. Whatever the exit, no pending-table entry outlives the attempt:
// every path drops (and usually cancels) the stragglers, and late frames
// are drained by the read loop.
//
// With qt non-nil the request carries the trace context naming a per-site
// rpc span, and the spans each site piggybacks on its reply are grafted
// into qt's trace anchored at this coordinator's post instant — no site
// wall clock is ever trusted.
func (c *Coordinator) queryAttempt(ctx context.Context, payload []byte, sol *batchSolver, qt *qtrace) (st WireStats, split bool, err error) {
	id := c.nextID.Add(1)
	start := time.Now()
	posted := 0 // sites 0..posted-1 hold a pending entry for id
	replied := make([]bool, len(c.conns))
	// Per-site audit/trace bookkeeping: the rpc span each request named,
	// its post instant (the anchor remote spans attach under), and the
	// response volume and site-measured eval time the auditor checks.
	var rpcIDs []uint64
	var anchors []time.Time
	respBytes := make([]int64, len(c.conns))
	evalNs := make([]int64, len(c.conns))
	if qt != nil {
		rpcIDs = make([]uint64, len(c.conns))
		anchors = make([]time.Time, len(c.conns))
	}

	// One frame per site at most: the demultiplexer never blocks on a round
	// that has stopped listening.
	replies := make(chan siteFrame, len(c.conns))

	// settle closes the attempt's books on every exit but a full round:
	// posted sites whose reply has not arrived are cancelled (and blamed as
	// stragglers when the round was decided without them).
	settle := func(early bool) {
		for i, sc := range c.conns[:posted] {
			if replied[i] {
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

	for i, sc := range c.conns {
		p := append([]byte(nil), payload...)
		if held := c.rows[i].Load(); held != nil {
			sol.held[i] = held
			held.tag.put(p[tagOffset:])
		}
		if qt != nil {
			rpcIDs[i] = qt.b.StartSpan(qt.par, "rpc", obs.Attr{Key: "site", Val: strconv.Itoa(i)})
			binary.LittleEndian.PutUint64(p[spanOffset:], rpcIDs[i])
			anchors[i] = time.Now()
		}
		n, err := sc.post(id, kindBatch, p, replies)
		if err != nil {
			// The sites already posted would evaluate for nobody: fail
			// cancels them.
			return fail(fmt.Errorf("site %d: %w", i, err))
		}
		posted++
		st.BytesSent += int64(n)
		st.FramesSent++
	}

	nReplied := 0
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
			qt.b.End(rpcIDs[f.site])
		}
		for i := range spans {
			if spans[i].Name == "eval" {
				evalNs[f.site] = int64(spans[i].DurNs)
			}
		}
		respBytes[f.site] = int64(len(body))
		decided, err := sol.feed(f.site, body)
		if err != nil {
			return fail(err)
		}
		if !decided && nReplied < len(c.conns) {
			continue
		}
		st.FirstAnswer = time.Since(start)
		st.RoundTrip = st.FirstAnswer
		if st.EarlyTerminated = nReplied < len(c.conns); st.EarlyTerminated {
			c.any.earlyTerms.Add(1)
			settle(true)
		}
		for _, o := range sol.rows {
			if o == obs.RowsMiss {
				st.RowsReplies++
			}
		}
		// RespBytes is each reply's body, span section excluded.
		if a := c.getAuditor(); a != nil {
			a.Observe(obs.AuditRound{RespBytes: respBytes, EvalNs: evalNs,
				Rows: sol.rows, Queries: len(sol.wire), RowsBacked: sol.rowsBacked})
		}
		return st, false, nil
	}
}
