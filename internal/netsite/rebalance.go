package netsite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"distreach/internal/codec"
	"distreach/internal/fragment"
)

// Live re-fragmentation over the wire. A rebalance frame ('R', request
// direction) tells every site to re-fragment the deployment at a new
// epoch: each replica re-runs the named partitioner over its current graph
// — deterministically, so independent replicas arrive at the same
// fragmentation — and atomically swaps it in. Queries in flight keep
// draining against the fragmentation they started with; the epoch tag on
// every answer frame lets the coordinator detect (and retry) the rare
// round that straddled the swap, so no query ever combines partial answers
// from two epochs. The fragment count is preserved: sites keep serving
// their fragment index, just with a new node assignment behind it.
//
// Rebalance request payload (internal/codec):
//
//	epoch uvarint | k uvarint | seed u64 | partitioner name blob (1..255 bytes)
//
// Rebalance response payload:
//
//	epoch uvarint (the replica's epoch after handling the frame) |
//	applied u8 (1 when this site performed the rebuild) |
//	fingerprint u64 (digest of graph + assignment; see
//	fragment.Fingerprint) | balance stats (as in the update reply)

// ErrReplicaDiverged reports that sites ended a rebalance round at the
// same epoch but with different fragmentation fingerprints. When the
// requested epoch was not fresh (some replica no-opped with an older
// build), a retry at a higher epoch forces every replica to rebuild and
// settles the question; a divergence that survives a forced rebuild means
// a replica's graph state genuinely differs (it restarted from stale
// files and missed updates) and needs re-seeding.
var ErrReplicaDiverged = errors.New("netsite: replica state diverged")

// RebalanceResult reports the outcome of a rebalance round.
type RebalanceResult struct {
	// Epoch is the deployment epoch after the round.
	Epoch uint64
	// Applied is false when no site rebuilt — the deployment had already
	// reached (or passed) the requested epoch.
	Applied bool
	// Stats is the balance of the post-rebalance fragmentation.
	Stats fragment.BalanceStats
}

// encodeRebalanceRequest packs one rebalance command.
func encodeRebalanceRequest(epoch uint64, k int, seed uint64, name string) ([]byte, error) {
	if len(name) == 0 || len(name) > 0xFF {
		return nil, fmt.Errorf("netsite: partitioner name of %d bytes out of range [1,255]", len(name))
	}
	b := binary.AppendUvarint(binary.AppendUvarint(nil, epoch), uint64(k))
	return codec.AppendBlob(codec.AppendU64(b, seed), name), nil
}

// decodeRebalanceRequest is the inverse of encodeRebalanceRequest,
// hardened against hostile payloads.
func decodeRebalanceRequest(p []byte) (epoch uint64, k int, seed uint64, name string, err error) {
	r := codec.NewReader(p)
	epoch, k, seed = r.Uvarint(), int(r.Int31()), r.U64()
	nb := r.Blob()
	if err := r.Done(); err != nil {
		return 0, 0, 0, "", fmt.Errorf("netsite: rebalance request: %w", err)
	}
	if len(nb) == 0 || len(nb) > 0xFF {
		return 0, 0, 0, "", fmt.Errorf("netsite: rebalance frame with a partitioner name of %d bytes", len(nb))
	}
	return epoch, k, seed, string(nb), nil
}

// encodeRebalanceReply packs one site's view of a handled rebalance.
func encodeRebalanceReply(epoch uint64, applied bool, fp uint64, bs fragment.BalanceStats) []byte {
	b := codec.AppendBool(binary.AppendUvarint(nil, epoch), applied)
	b, _ = bs.AppendBinary(codec.AppendU64(b, fp))
	return b
}

// decodeRebalanceReply is the inverse of encodeRebalanceReply.
func decodeRebalanceReply(p []byte) (epoch uint64, applied bool, fp uint64, bs fragment.BalanceStats, err error) {
	r := codec.NewReader(p)
	epoch, applied, fp = r.Uvarint(), r.Bool(), r.U64()
	if err := bs.UnmarshalBinary(r.Rest()); err != nil {
		r.Fail(err)
	}
	if err := r.Done(); err != nil {
		return 0, false, 0, bs, fmt.Errorf("netsite: rebalance reply: %w", err)
	}
	return epoch, applied, fp, bs, nil
}

// rebalancePartitioner is the one re-fragmentation strategy: the
// gateway's /rebalance and auto-rebalance and SyncReplicas' epoch
// realignment all run it (see fragment.ByName).
const rebalancePartitioner = "edgecut"

// Rebalance re-fragments the deployment at the given epoch using
// rebalancePartitioner parameterized by seed. The round is serialized
// against update rounds, so no mutation batch ever straddles the epoch
// switch from this coordinator. Sites that already reached the epoch
// no-op (idempotent broadcast); if every site had already passed it,
// Applied is false and Epoch reports where the deployment actually is —
// callers retry with a higher epoch.
func (c *Coordinator) Rebalance(epoch, seed uint64) (RebalanceResult, WireStats, error) {
	return c.RebalanceContext(context.Background(), epoch, seed)
}

// RebalanceContext is Rebalance honoring a context deadline or
// cancellation. Prefer a generous deadline: the sites rebuild the whole
// fragmentation before answering.
func (c *Coordinator) RebalanceContext(ctx context.Context, epoch, seed uint64) (RebalanceResult, WireStats, error) {
	c.updMu.Lock()
	defer c.updMu.Unlock()
	return c.rebalanceLocked(ctx, epoch, rebalancePartitioner, seed)
}

// rebalanceLocked is RebalanceContext with the round lock already held
// (SyncReplicas realigns epochs mid-sync through it).
func (c *Coordinator) rebalanceLocked(ctx context.Context, epoch uint64, partitioner string, seed uint64) (RebalanceResult, WireStats, error) {
	if _, err := fragment.ByName(partitioner, seed); err != nil {
		return RebalanceResult{}, WireStats{}, err
	}
	payload, err := encodeRebalanceRequest(epoch, len(c.conns), seed, partitioner)
	if err != nil {
		return RebalanceResult{}, WireStats{}, err
	}
	results, st := c.roundtripAll(ctx, kindRebalance, payload)
	var res RebalanceResult
	var fp0, maxEpoch uint64
	split, diverged := false, -1
	for i, r := range results {
		// All or nothing: a rebalance no site may skip.
		if r.err != nil {
			return RebalanceResult{}, st, r.err
		}
		e, applied, fp, bs, err := decodeRebalanceReply(r.payload)
		if err != nil {
			return RebalanceResult{}, st, fmt.Errorf("netsite: site %d reply: %w", i, err)
		}
		if e > maxEpoch {
			maxEpoch = e
		}
		if i == 0 {
			res.Epoch, res.Stats, fp0 = e, bs, fp
		} else if e != res.Epoch {
			split = true
		} else if fp != fp0 && diverged < 0 {
			diverged = i
		}
		res.Applied = res.Applied || applied
	}
	// Either mismatch means the replicas are not serving one coherent
	// fragmentation. Both report the highest epoch observed so the caller
	// can retry at a strictly fresher epoch, forcing every replica to
	// rebuild: a retry settles a stale-epoch straggler, while a mismatch
	// that survives a forced rebuild is genuine graph divergence (a
	// replica restarted from stale files) that needs re-seeding.
	if split {
		return RebalanceResult{Epoch: maxEpoch}, st, fmt.Errorf("%w (sites ended rebalance at different epochs, max %d)", ErrReplicaDiverged, maxEpoch)
	}
	if diverged >= 0 {
		return RebalanceResult{Epoch: maxEpoch}, st, fmt.Errorf("%w (site %d fingerprint differs at epoch %d)", ErrReplicaDiverged, diverged, res.Epoch)
	}
	res.Stats.Epoch = res.Epoch
	st.Epoch = res.Epoch
	return res, st, nil
}
