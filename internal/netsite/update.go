package netsite

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"distreach/internal/codec"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/oplog"
)

// Live graph updates over the wire. An update frame ('U') carries one
// sequenced transactional batch of mutations — edge inserts/deletes and
// node inserts/deletes. The coordinator draws the batch's LSN from the
// deployment's sequencer (write-ahead logging it first when the sequencer
// is durable) and broadcasts the frame to every site; each site holds a
// replica of the whole fragmentation, applies the batch atomically under
// the fragmentation write lock in LSN order, and replies with what changed
// from its replica's point of view. Re-delivered frames (sites sharing one
// in-process replica, retries) replay the recorded result — node
// insertion, unlike edge ops, is not idempotent — and the coordinator
// unions the replies into the definitive dirty set.
//
// Update request payload (internal/codec; every integer a uvarint but the
// nonce):
//
//	lsn uvarint | nonce u64 | ops (oplog.AppendOps):
//	  count uvarint | per op:
//	  kind u8 ('i' insert edge | 'd' delete edge | 'n' insert node |
//	           'r' delete node)
//	  'i'/'d' add: u uvarint | v uvarint
//	  'n'     adds: frag+1 uvarint (0 = partitioner places) | label blob
//	  'r'     adds: v uvarint
//
// The nonce identifies the submitter: a replica that sees a *different*
// writer's batch at an LSN it already applied errors loudly (two gateways
// forked the order by not sharing a sequencer) instead of silently
// swallowing the batch.
//
// Update response payload:
//
//	changed u8 | ndirty uvarint | dirty uvarint each
//	  | nnew uvarint | new node IDs uvarint each
//	  | balance stats (fragment.BalanceStats.AppendBinary: k | maxSize
//	    | minSize | totalSize | vf | crossEdges, uvarint each)
//
// Every reply rides inside the (epoch, lsn)-prefixed answer frame, and the
// reply carries the post-update BalanceStats so the gateway can watch skew
// drift without extra traffic and trigger a rebalance.
//
// Consistency: the sequencer serializes update rounds across every writer
// of the deployment, and replicas enforce LSN order, so all replicas apply
// all batches in one total order. A site that is unreachable (or behind)
// during a round is skipped — the write-ahead log re-delivers to it via
// catch-up replication (see sync.go), and query rounds refuse to combine
// its stale partials with fresh ones in the meantime (the LSN tag on every
// answer), so convergence is eventual but never silently wrong.

// Op is one mutation of a wire update batch (alias of fragment.Op).
type Op = fragment.Op

// The four mutation kinds, re-exported for wire callers.
const (
	OpInsertEdge = fragment.OpInsertEdge
	OpDeleteEdge = fragment.OpDeleteEdge
	OpInsertNode = fragment.OpInsertNode
	OpDeleteNode = fragment.OpDeleteNode
)

// UpdateOp selects the edge operation of the single-edge Update
// convenience wrapper.
type UpdateOp byte

// The two edge operations.
const (
	UpdateInsert UpdateOp = 'i'
	UpdateDelete UpdateOp = 'd'
)

// UpdateResult reports the effect of one update batch on the deployment.
type UpdateResult struct {
	// Changed is false when the whole batch was a no-op (inserting
	// existing edges, deleting missing ones, re-deleting nodes).
	Changed bool
	// Dirty lists the fragments whose partial answers may have changed,
	// sorted ascending. Empty when Changed is false.
	Dirty []int
	// NewIDs holds the node ID assigned to each OpInsertNode, in op order.
	NewIDs []graph.NodeID
	// Epoch is the deployment epoch the batch applied under, and LSN the
	// position it holds in the update log's total order.
	Epoch uint64
	LSN   uint64
	// Missed lists the sites that did not apply the batch this round —
	// unreachable, or behind on the log. The batch is durably sequenced,
	// so catch-up replication delivers it to them; callers should trigger
	// a sync when Missed is non-empty.
	Missed []int
	// Stats is the post-update balance of the fragmentation; the gateway
	// watches its Skew to trigger automatic rebalancing.
	Stats fragment.BalanceStats
}

// encodeUpdateRequest packs one sequenced transactional mutation batch.
func encodeUpdateRequest(lsn, nonce uint64, ops []Op) ([]byte, error) {
	return oplog.AppendOps(codec.AppendU64(binary.AppendUvarint(nil, lsn), nonce), ops)
}

// decodeUpdateRequest is the inverse of encodeUpdateRequest, hardened
// against hostile payloads: every count and length is bounds-checked and
// trailing bytes are rejected.
func decodeUpdateRequest(p []byte) (lsn, nonce uint64, ops []Op, err error) {
	r := codec.NewReader(p)
	lsn, nonce = r.Uvarint(), r.U64()
	ops = oplog.ReadOps(r)
	if err := r.Done(); err != nil {
		return 0, 0, nil, fmt.Errorf("netsite: update request: %w", err)
	}
	return lsn, nonce, ops, nil
}

// encodeUpdateReply packs one site's view of an applied update batch plus
// the post-update balance stats.
func encodeUpdateReply(changed bool, dirty []int, newIDs []graph.NodeID, bs fragment.BalanceStats) []byte {
	b := codec.AppendBool(nil, changed)
	b = binary.AppendUvarint(b, uint64(len(dirty)))
	for _, d := range dirty {
		b = binary.AppendUvarint(b, uint64(d))
	}
	b = binary.AppendUvarint(b, uint64(len(newIDs)))
	for _, id := range newIDs {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b, _ = bs.AppendBinary(b)
	return b
}

// decodeUpdateReply is the inverse of encodeUpdateReply, hardened against
// hostile payloads.
func decodeUpdateReply(p []byte) (changed bool, dirty []int, newIDs []graph.NodeID, bs fragment.BalanceStats, err error) {
	r := codec.NewReader(p)
	changed = r.Bool()
	dirty = make([]int, r.Count(1))
	for i := range dirty {
		dirty[i] = int(r.Int31())
	}
	newIDs = make([]graph.NodeID, r.Count(1))
	for i := range newIDs {
		newIDs[i] = graph.NodeID(r.Int31())
	}
	if err := bs.UnmarshalBinary(r.Rest()); err != nil {
		r.Fail(err)
	}
	if err := r.Done(); err != nil {
		return false, nil, nil, bs, fmt.Errorf("netsite: update reply: %w", err)
	}
	return changed, dirty, newIDs, bs, nil
}

// Update applies one edge insertion or deletion to the deployment — the
// single-edge convenience form of Apply.
func (c *Coordinator) Update(op UpdateOp, u, v graph.NodeID) (UpdateResult, WireStats, error) {
	return c.UpdateContext(context.Background(), op, u, v)
}

// UpdateContext is Update honoring a context deadline or cancellation.
func (c *Coordinator) UpdateContext(ctx context.Context, op UpdateOp, u, v graph.NodeID) (UpdateResult, WireStats, error) {
	var kind fragment.OpKind
	switch op {
	case UpdateInsert:
		kind = OpInsertEdge
	case UpdateDelete:
		kind = OpDeleteEdge
	default:
		return UpdateResult{}, WireStats{}, fmt.Errorf("netsite: unknown update op %q", byte(op))
	}
	return c.ApplyContext(ctx, []Op{{Kind: kind, U: u, V: v}})
}

// InsertNode adds a node carrying label to the deployment; the replicas'
// partitioner places it. The assigned ID is UpdateResult.NewIDs[0].
func (c *Coordinator) InsertNode(label string) (UpdateResult, WireStats, error) {
	return c.ApplyContext(context.Background(), []Op{{Kind: OpInsertNode, Label: label, Frag: -1}})
}

// DeleteNode removes node v from the deployment, cascading to its
// incident edges.
func (c *Coordinator) DeleteNode(v graph.NodeID) (UpdateResult, WireStats, error) {
	return c.ApplyContext(context.Background(), []Op{{Kind: OpDeleteNode, U: v}})
}

// Apply runs one transactional mutation batch against the deployment: the
// batch draws an LSN from the sequencer (write-ahead logged first when
// durable), travels in a single update frame to every site, each replica
// applies it atomically under its fragmentation write lock, and the
// replies are unioned into the definitive changed flag, dirty fragment
// set and new node IDs. The sequencer serializes batches across every
// writer, so all replicas apply them in the same order.
func (c *Coordinator) Apply(ops []Op) (UpdateResult, WireStats, error) {
	return c.ApplyContext(context.Background(), ops)
}

// ensureSeqInit adopts the deployment's current LSN into a sequencer that
// has not submitted through this coordinator yet: a hello round asks every
// reachable site where the log stands, so a freshly dialed coordinator
// (or a gateway whose write-ahead log is younger than the deployment)
// extends the existing order instead of forking it. Bare-fragment sites
// reject the hello with an error *reply*; that still proves the site is
// reachable (and has no LSN), so it counts as an answer. Only a round in
// which NO site answered at all fails — latching "initialized" on silence
// would adopt LSN 0 and fork a deployment that is really further along.
func (c *Coordinator) ensureSeqInit(ctx context.Context, seq *oplog.Sequencer) error {
	c.seqMu.Lock()
	done := c.seqInit
	c.seqMu.Unlock()
	if done {
		return nil
	}
	// The adoption hello is deliberately NOT folded into any update's
	// WireStats: those keep their one-frame-per-site-per-round meaning.
	// The connection-level WireTotals still count it.
	results, _ := c.roundtripAll(ctx, kindSync, []byte{syncHello})
	var max uint64
	answered := false
	var firstErr error
	for _, r := range results {
		switch {
		case r.err == nil:
			answered = true
			if r.lsn > max {
				max = r.lsn
			}
		case r.appErr:
			answered = true // reachable, just not a replica-backed site
		case firstErr == nil:
			firstErr = r.err
		}
	}
	if !answered {
		if firstErr == nil {
			firstErr = fmt.Errorf("netsite: no sites connected")
		}
		return fmt.Errorf("netsite: cannot adopt the deployment's LSN: %w", firstErr)
	}
	if err := seq.Advance(max); err != nil {
		return err
	}
	c.seqMu.Lock()
	c.seqInit = true
	c.seqMu.Unlock()
	return nil
}

// isBehindError reports whether a site's error reply marks a replica that
// missed earlier batches: the wire's error frame flattens
// fragment.ErrReplicaBehind to text, so the reply carries the sentinel's
// own text.
func isBehindError(err error) bool {
	return err != nil && strings.Contains(err.Error(), fragment.ErrReplicaBehind.Error())
}

// ApplyContext is Apply honoring a context deadline or cancellation.
func (c *Coordinator) ApplyContext(ctx context.Context, ops []Op) (UpdateResult, WireStats, error) {
	if len(ops) == 0 {
		return UpdateResult{}, WireStats{}, fmt.Errorf("netsite: empty update batch")
	}
	c.updMu.Lock()
	defer c.updMu.Unlock()
	seq := c.Sequencer()
	if err := c.ensureSeqInit(ctx, seq); err != nil {
		return UpdateResult{}, WireStats{}, err
	}
	var res UpdateResult
	var st WireStats
	held := c.heldTags()
	nonce := rand.Uint64() | 1 // nonzero: 0 means "replay, match anything"
	_, err := seq.Submit(ops, func(lsn uint64) error {
		payload, err := encodeUpdateRequest(lsn, nonce, ops)
		if err != nil {
			// Nothing went out, so the sequencer may hand the LSN on.
			return fmt.Errorf("%w: %w", oplog.ErrNotDelivered, err)
		}
		results, rst := c.roundtripAll(ctx, kindUpdate, payload)
		st = rst
		st.LSN = lsn
		// A site that is unreachable or behind on the log is a laggard,
		// not a failure: the batch is sequenced (and, with a durable
		// sequencer, logged), so catch-up replication re-delivers it. Any
		// other site error — validation, codec — is deterministic across
		// replicas and fails the round.
		applied, behind := 0, false
		for i, r := range results {
			if r.err != nil {
				if !r.appErr || isBehindError(r.err) {
					behind = behind || isBehindError(r.err)
					res.Missed = append(res.Missed, i)
					continue
				}
				return r.err
			}
			applied++
		}
		if applied == 0 {
			// The batch reached no replica. Every replica being behind the
			// sequenced log is a state split the caller can heal (catch-up
			// replication re-delivers from the log); either way the batch
			// was not delivered, which lets an in-memory sequencer reclaim
			// the LSN instead of leaving a hole.
			var cause error
			for _, r := range results {
				if r.err != nil {
					cause = r.err
					break
				}
			}
			if cause == nil {
				cause = fmt.Errorf("netsite: no sites connected")
			}
			if behind {
				return fmt.Errorf("%w: %w (replicas trail the sequenced log; catch-up needed): %v", oplog.ErrNotDelivered, ErrEpochSplit, cause)
			}
			return fmt.Errorf("%w: %v", oplog.ErrNotDelivered, cause)
		}
		seen := map[int]bool{}
		first := true
		for i, r := range results {
			if r.err != nil {
				continue
			}
			changed, dirty, newIDs, bs, err := decodeUpdateReply(r.payload)
			if err != nil {
				return fmt.Errorf("netsite: site %d reply: %w", i, err)
			}
			res.Changed = res.Changed || changed
			for _, d := range dirty {
				if !seen[d] {
					seen[d] = true
					res.Dirty = append(res.Dirty, d)
				}
			}
			if first {
				first = false
				res.NewIDs, res.Stats, res.Epoch = newIDs, bs, r.epoch
			} else if r.epoch != res.Epoch {
				// An update must apply on one epoch everywhere; a split means a
				// replica is out of sync (or a rebalance raced this round from
				// another coordinator).
				return fmt.Errorf("%w (update applied across epochs %d and %d)", ErrEpochSplit, res.Epoch, r.epoch)
			}
			for j, id := range newIDs {
				if j < len(res.NewIDs) && res.NewIDs[j] != id {
					return fmt.Errorf("netsite: sites disagree on new node IDs (%d vs %d)", res.NewIDs[j], id)
				}
			}
		}
		res.LSN = lsn
		return nil
	})
	if err != nil {
		return UpdateResult{}, st, err
	}
	sort.Ints(res.Dirty)
	c.markStale(res.Dirty, held)
	res.Stats.Epoch = res.Epoch
	st.Epoch = res.Epoch
	return res, st, nil
}
