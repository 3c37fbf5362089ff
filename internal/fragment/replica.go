package fragment

import (
	"errors"
	"fmt"
	"sync"
)

// ErrReplicaBehind reports that an update batch arrived with an LSN more
// than one past the replica's last applied LSN: the replica missed
// earlier batches (it restarted from stale files, or was unreachable when
// they were broadcast) and must catch up — by log replay or snapshot
// transfer — before it can apply new ones. The serving layer turns this
// into automatic catch-up replication.
var ErrReplicaBehind = errors.New("fragment: replica is behind the update log")

// Replica is a site's handle on the deployment's current fragmentation,
// tagged with the epoch that advances on every live re-fragmentation and
// the LSN of the last update batch applied. Sites resolve the state per
// request, so queries in flight across a rebalance keep evaluating
// against the fragmentation (and epoch) they started with — the swap is
// atomic and nothing blocks: zero-downtime redeploy.
//
// Update batches apply in LSN order: batch N+1 applies only once batch N
// has. The LSNs come from one sequencer per deployment (see
// internal/oplog), which gives every replica the same total order however
// many gateways write — the property that makes independently maintained
// replicas converge to the same fingerprint. Re-delivered batches (the
// broadcast to co-located sites sharing one Replica, or a retried frame)
// replay the recorded result instead of re-applying — node insertion,
// unlike edge ops, is not idempotent.
type Replica struct {
	mu    sync.Mutex
	fr    *Fragmentation
	epoch uint64
	lsn   uint64

	// Recently applied batches and their results, keyed by LSN, for
	// broadcast dedupe. Each entry remembers the submitter's nonce so a
	// *different* writer colliding on an LSN (two gateways that failed to
	// share a sequencer) fails loudly instead of silently swallowing a
	// batch.
	seqRes map[uint64]appliedBatch
	seqLog []uint64 // FIFO of live keys in seqRes

	// rebMu serializes rebalances so k co-located sites handling the same
	// broadcast frame do not rebuild k times.
	rebMu sync.Mutex
}

type appliedBatch struct {
	nonce uint64
	res   ApplyResult
	err   string // non-empty: the batch was rejected (deterministically)
}

// seqWindow bounds how many applied batch results a replica remembers for
// dedupe; far more than the frames of any plausible in-flight broadcast.
const seqWindow = 256

// NewReplica wraps fr at epoch 0, LSN 0 (a fresh deployment).
func NewReplica(fr *Fragmentation) *Replica { return NewReplicaAt(fr, 0, 0) }

// NewReplicaAt wraps fr at the given epoch and LSN — the state recovered
// from a snapshot plus local log replay.
func NewReplicaAt(fr *Fragmentation, epoch, lsn uint64) *Replica {
	fr.setLSN(lsn)
	return &Replica{fr: fr, epoch: epoch, lsn: lsn, seqRes: make(map[uint64]appliedBatch, seqWindow)}
}

// Current reports the fragmentation serving queries right now and its
// epoch.
func (r *Replica) Current() (*Fragmentation, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fr, r.epoch
}

// State reports the fragmentation, epoch and last applied LSN atomically.
func (r *Replica) State() (*Fragmentation, uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fr, r.epoch, r.lsn
}

// Epoch reports the current epoch.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// LSN reports the last applied update batch's LSN.
func (r *Replica) LSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lsn
}

// ApplyLSN runs one sequenced update batch against the current
// fragmentation, enforcing the total order:
//
//   - lsn == LSN()+1 attempts the batch and advances the replica. A batch
//     the validator rejects still advances (and records its error): the
//     rejection is deterministic across replicas, so the slot becomes a
//     no-op of the total order rather than a hole no replica can cross;
//   - lsn <= LSN() is a re-delivery: the recorded outcome replays if the
//     nonce matches (nonce 0, used by log replay, matches anything); a
//     mismatched nonce or an LSN too old for the dedupe window errors —
//     a second writer is forking the order;
//   - lsn > LSN()+1 returns ErrReplicaBehind: the replica missed batches
//     and must catch up first.
//
// lsn 0 bypasses ordering entirely (apply directly, advance nothing) —
// the escape hatch for local, unsequenced mutation in tests and tools.
// advanced reports whether this call moved the replica's LSN (true even
// for a recorded rejection — the site must log the slot either way).
func (r *Replica) ApplyLSN(lsn, nonce uint64, ops []Op) (res ApplyResult, advanced bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lsn == 0 {
		res, err = r.fr.Apply(ops)
		return res, false, err
	}
	if lsn <= r.lsn {
		if rec, ok := r.seqRes[lsn]; ok {
			if nonce == 0 || rec.nonce == 0 || nonce == rec.nonce {
				if rec.err != "" {
					return ApplyResult{}, false, errors.New(rec.err)
				}
				return rec.res, false, nil
			}
			return ApplyResult{}, false, fmt.Errorf("fragment: batch LSN %d was already applied by a different writer (deployments must share one sequencer)", lsn)
		}
		return ApplyResult{}, false, fmt.Errorf("fragment: stale batch LSN %d, replica is at %d (foreign sequencer?)", lsn, r.lsn)
	}
	if lsn != r.lsn+1 {
		return ApplyResult{}, false, fmt.Errorf("%w (batch LSN %d, replica at %d)", ErrReplicaBehind, lsn, r.lsn)
	}
	res, err = r.fr.applyAt(lsn, ops)
	r.lsn = lsn
	rec := appliedBatch{nonce: nonce, res: res}
	if err != nil {
		rec.err = err.Error()
	}
	if len(r.seqLog) >= seqWindow {
		delete(r.seqRes, r.seqLog[0])
		r.seqLog = r.seqLog[1:]
	}
	r.seqRes[lsn] = rec
	r.seqLog = append(r.seqLog, lsn)
	return res, true, err
}

// Install atomically replaces the replica's whole state with a snapshot:
// fragmentation, epoch and LSN. Queries in flight keep draining against
// the state they started with. Going backward is refused (installed is
// false) so a stale snapshot frame re-delivered out of order cannot
// regress a replica that already caught up past it.
func (r *Replica) Install(fr *Fragmentation, epoch, lsn uint64) (installed bool) {
	r.mu.Lock()
	if lsn < r.lsn || (lsn == r.lsn && epoch <= r.epoch) {
		r.mu.Unlock()
		return false
	}
	old := r.fr
	fr.setLSN(lsn)
	r.fr, r.epoch, r.lsn = fr, epoch, lsn
	r.seqRes = make(map[uint64]appliedBatch, seqWindow)
	r.seqLog = nil
	r.mu.Unlock()
	// Inherit the index configuration from the replaced state and rebuild
	// asynchronously; queries hitting the fresh fragmentation fall back to
	// direct evaluation meanwhile.
	if b := old.ReachIndexBudget(); b > 0 {
		fr.EnableReachIndex(b)
	}
	return true
}

// Rebalance advances the replica to the given epoch by re-fragmenting the
// current graph with partitioner p: the new fragmentation is built while
// queries keep flowing (the rebuild holds only the old fragmentation's
// read lock, which excludes updates but not queries), then swapped in
// atomically. It reports whether this call performed the rebuild — false
// when the replica already reached (or passed) the epoch, the idempotent
// no-op the broadcast relies on. The fragment count is preserved: each
// site keeps serving the same fragment index of the new fragmentation.
// The LSN is untouched: re-fragmentation changes the assignment, not the
// graph, so the update order continues across the epoch switch.
func (r *Replica) Rebalance(epoch uint64, p Partitioner) (bool, error) {
	r.rebMu.Lock()
	defer r.rebMu.Unlock()
	cur, curEpoch := r.Current()
	if epoch <= curEpoch {
		return false, nil // already there: another co-located site rebuilt
	}
	k := cur.Card()
	// Fold the graph's mutation overlay into its flat CSR base first — the
	// epoch swap is the designated compaction point, and the rebuild below
	// re-reads the whole graph anyway. The brief write lock gives the
	// exclusivity the base swap needs (the same exclusivity updates use).
	cur.mu.Lock()
	cur.g.Compact()
	cur.mu.Unlock()
	// Hold the read lock during the rebuild: updates (which need the write
	// lock) are excluded, so the graph is stable, while queries (fellow
	// read-lockers) keep draining against the old fragmentation.
	cur.mu.RLock()
	next, err := Partition(cur.g, p, k)
	cur.mu.RUnlock()
	if err != nil {
		return false, fmt.Errorf("fragment: rebalance to epoch %d: %w", epoch, err)
	}
	r.mu.Lock()
	next.setLSN(r.lsn)
	r.fr, r.epoch = next, epoch
	r.mu.Unlock()
	// The rebuilt fragmentation inherits the index configuration; its
	// indexes build asynchronously while queries drain with direct
	// evaluation — the same swap-then-catch-up discipline as the epoch
	// switch itself.
	if b := cur.ReachIndexBudget(); b > 0 {
		next.EnableReachIndex(b)
	}
	return true, nil
}
