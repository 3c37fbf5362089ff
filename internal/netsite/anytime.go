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
// many — runs through streamRound: post the one request frame to every
// site, consume reply frames in arrival order, hand their bodies to the
// round's batchSolver. With the stream flag set, a site that has to ship
// its boundary rows emits 'P' frames — the query parts, then chunks of the
// rows — ahead of its final answer, and the round returns the instant the
// solver reports every query decided, cancelling the stragglers with 'C'
// frames. Without it ("strict": anytime off, or a round with distance or
// regex queries) the same loop simply sees one final per site and waits
// for all of them.
//
// Each site's request names the copy of its boundary rows the coordinator
// holds at that instant (batch.go): the attempt captures that copy, and it
// is what a rows-free final from the site stands for — never a copy stored
// later by a concurrent round.
//
// Round discipline: the first frame of an attempt pins its (epoch, LSN);
// any frame from a different state aborts the attempt (cancelling all
// sites) and retries with backoff. Partial answers are Boolean equations
// over the fragmentation and graph the site evaluated on; composing them
// across two fragmentations (or across an update that landed on only some
// replicas) would be meaningless, so equations only ever accumulate from
// one consistent deployment state.

// streamEvent is one forwarded response frame (or connection loss) in a
// streaming round.
type streamEvent struct {
	site  int
	r     wireReply
	ok    bool // false: the connection was lost before a final arrived
	final bool
}

// forwardReplies pumps one site's partial and final frames into the
// round's shared event channel. When the final arrives, already-buffered
// partials are drained first (the site wrote them first; the read loop
// preserved that order), so accounting sees every frame. The done channel
// bounds the goroutine's lifetime: once the round returns, forwarders
// exit on their next operation — no pending-table or goroutine leak.
func forwardReplies(site int, pr *pendingReq, events chan<- streamEvent, done <-chan struct{}) {
	push := func(ev streamEvent) bool {
		select {
		case events <- ev:
			return true
		case <-done:
			return false
		}
	}
	for {
		select {
		case r := <-pr.parts:
			if !push(streamEvent{site: site, r: r, ok: true}) {
				return
			}
		case r, ok := <-pr.final:
			for drained := false; !drained; {
				select {
				case p := <-pr.parts:
					if !push(streamEvent{site: site, r: p, ok: true}) {
						return
					}
				default:
					drained = true
				}
			}
			push(streamEvent{site: site, r: r, ok: ok, final: true})
			return
		case <-done:
			return
		}
	}
}

// Epoch-split retry tuning: how often a query round is retried when its
// sites answered from different states, and the backoff between attempts.
// The backoff matters: an immediate retry lands inside the same rebalance
// or update burst that split the round, while a short exponential pause
// lets the new state finish propagating to every site's worker.
const (
	epochRetries      = 8
	epochRetryBackoff = time.Millisecond
)

// streamRound runs one query round to a settled outcome: attempts are
// repeated, with backoff, while sites answer from different deployment
// states. sol is reset before each attempt and holds the settled
// attempt's equations on return. The stats accumulate across attempts —
// retried frames and bytes are real traffic.
func (c *Coordinator) streamRound(ctx context.Context, payload []byte, stream bool, sol *batchSolver, qt *qtrace) (WireStats, error) {
	var total WireStats
	backoff := epochRetryBackoff
	for attempt := 0; ; attempt++ {
		rqt := qt
		if qt != nil {
			roundID := qt.b.StartSpan(qt.par, "round", obs.Attr{Key: "attempt", Val: strconv.Itoa(attempt)})
			rqt = qt.child(roundID)
		}
		sol.reset()
		st, split, err := c.streamAttempt(ctx, payload, stream, sol, rqt)
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

// streamAttempt posts the request to every site and delivers every
// response frame, in arrival order, to sol. When sol reports the round
// decided before every final arrived, the attempt cancels the stragglers
// and returns early. A frame from a mismatched (epoch, LSN) aborts the
// attempt with split set (streamRound retries); site errors, connection
// losses and context cancellation abort it with an error. Whatever the
// exit, no pending-table entry outlives the attempt: every path drops (and
// usually cancels) the stragglers, and late frames are drained by the read
// loop.
//
// With qt non-nil the request carries the trace context naming a per-site
// rpc span, and the spans each site piggybacks on its final are grafted
// into qt's trace anchored at this coordinator's post instant — no site
// wall clock is ever trusted.
func (c *Coordinator) streamAttempt(ctx context.Context, payload []byte, stream bool, sol *batchSolver, qt *qtrace) (st WireStats, split bool, err error) {
	id := c.nextID.Add(1)
	start := time.Now()
	posted := 0 // sites 0..posted-1 hold a pending entry for id
	finals := make([]bool, len(c.conns))
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

	done := make(chan struct{})
	defer close(done)
	// Sized so forwarders can buffer every frame a round can legally carry:
	// sends never block once the main loop stops reading.
	events := make(chan streamEvent, len(c.conns)*(maxPartialBuffer+1))

	// settle closes the attempt's books on every exit but a full round:
	// posted sites whose final has not arrived are cancelled (and blamed as
	// stragglers when the round was decided without them).
	settle := func(early bool) {
		for i, sc := range c.conns[:posted] {
			if finals[i] {
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
		pr, n, err := sc.post(id, kindBatch, p, stream)
		if err != nil {
			// The sites already posted would evaluate for nobody: fail
			// cancels them.
			return fail(fmt.Errorf("site %d: %w", i, err))
		}
		posted++
		st.BytesSent += int64(n)
		st.FramesSent++
		go forwardReplies(i, pr, events, done)
	}

	var (
		epoch, lsn uint64
		stateSet   bool
		nFinal     int
	)
	for {
		var ev streamEvent
		select {
		case <-ctx.Done():
			return fail(fmt.Errorf("netsite: %w", ctx.Err()))
		case ev = <-events:
		}
		if !ev.ok {
			return fail(fmt.Errorf("site %d: %w", ev.site, c.conns[ev.site].lastErr()))
		}
		r := ev.r
		if ev.final && r.kind == kindError {
			return fail(fmt.Errorf("site %d: %s", ev.site, r.payload))
		}
		if (ev.final && r.kind != kindAnswer) || (!ev.final && r.kind != kindPartial) {
			return fail(fmt.Errorf("site %d: unexpected frame kind %q", ev.site, r.kind))
		}
		if len(r.payload) < answerPrefix {
			return fail(fmt.Errorf("site %d: frame of %d bytes lacks the state tag", ev.site, len(r.payload)))
		}
		e := binary.LittleEndian.Uint64(r.payload)
		l := binary.LittleEndian.Uint64(r.payload[8:])
		if !stateSet {
			epoch, lsn, stateSet = e, l, true
			st.Epoch, st.LSN = epoch, lsn
		} else if e != epoch || l != lsn {
			settle(false)
			return st, true, nil
		}
		st.BytesReceived += int64(r.n)
		body := r.payload[answerPrefix:]
		if ev.final {
			// The one query reply: the site's spans (none when untraced)
			// head the body.
			spans, rest, derr := obs.DecodeWireSpans(body)
			if derr != nil {
				return fail(fmt.Errorf("site %d: %w", ev.site, derr))
			}
			body = rest
			if qt != nil {
				qt.b.AttachRemote(rpcIDs[ev.site], ev.site, anchors[ev.site], spans)
				qt.b.End(rpcIDs[ev.site])
			}
			for i := range spans {
				if spans[i].Name == "eval" {
					evalNs[ev.site] = int64(spans[i].DurNs)
				}
			}
			st.FramesReceived++
			finals[ev.site] = true
			nFinal++
			c.noteSiteLSN(ev.site, l)
		} else {
			st.PartialFrames++
			c.any.partials.Add(1)
		}
		respBytes[ev.site] += int64(len(body))
		decided, err := sol.feed(ev.site, body, ev.final)
		if err != nil {
			return fail(err)
		}
		if !decided && nFinal < len(c.conns) {
			continue
		}
		st.FirstAnswer = time.Since(start)
		st.RoundTrip = st.FirstAnswer
		if st.EarlyTerminated = nFinal < len(c.conns); st.EarlyTerminated {
			c.any.earlyTerms.Add(1)
			settle(true)
		}
		for _, o := range sol.rows {
			if o == obs.RowsMiss {
				st.RowsReplies++
			}
		}
		// Each site received exactly one request frame (the invariant the
		// paper's 1-visit guarantee is about; cancel frames are control
		// traffic), and RespBytes sums every partial and final body the
		// site emitted before the round settled, span sections excluded.
		if a := c.getAuditor(); a != nil {
			frames := make([]int64, len(c.conns))
			for i := range frames {
				frames[i] = 1
			}
			a.Observe(obs.AuditRound{Frames: frames, RespBytes: respBytes, EvalNs: evalNs,
				Rows: sol.rows, Queries: len(sol.wire), ReachOnly: sol.reachOnly})
		}
		return st, false, nil
	}
}
