package fragment

import (
	"encoding/binary"
	"fmt"
	"math"

	"distreach/internal/codec"
	"distreach/internal/graph"
)

// BalanceStats summarizes how healthy a fragmentation is with respect to
// the paper's complexity parameters: local work is bounded by the largest
// fragment |Fm| (MaxSize) and network traffic by the fragment-graph size
// |Vf| and its edge count |Ef| (CrossEdges). Live updates drift these —
// a hot fragment bloats, cross edges multiply — so the serving layer
// watches BalanceStats and triggers a re-fragmentation when Skew crosses
// its threshold.
type BalanceStats struct {
	Fragments  int    // card(F)
	MaxSize    int    // |Fm|: nodes+edges of the largest fragment
	MinSize    int    // size of the smallest fragment
	TotalSize  int64  // sum of fragment sizes (MeanSize derives from it)
	Vf         int    // |Vf|: nodes of the fragment graph
	CrossEdges int    // |Ef|: edges crossing fragments
	Epoch      uint64 // deployment epoch the stats describe (0 pre-rebalance)
}

// MeanSize is the average fragment size.
func (bs BalanceStats) MeanSize() float64 {
	if bs.Fragments == 0 {
		return 0
	}
	return float64(bs.TotalSize) / float64(bs.Fragments)
}

// Skew is MaxSize over MeanSize: 1.0 is perfectly balanced, and the value
// grows as one fragment accumulates a disproportionate share of the graph.
// A deployment whose skew crosses its configured threshold is due for a
// rebalance.
func (bs BalanceStats) Skew() float64 {
	mean := bs.MeanSize()
	if mean == 0 {
		return 1
	}
	return float64(bs.MaxSize) / mean
}

// String renders the stats compactly for logs and CLIs.
func (bs BalanceStats) String() string {
	return fmt.Sprintf("balance{k=%d, |Fm|=%d, mean=%.1f, skew=%.2f, |Vf|=%d, |Ef|=%d}",
		bs.Fragments, bs.MaxSize, bs.MeanSize(), bs.Skew(), bs.Vf, bs.CrossEdges)
}

// AppendBinary implements encoding.BinaryAppender: the six counts in field
// order, each a uvarint (internal/codec). Epoch is not part of it: the
// update and rebalance replies that end with the stats are tagged with
// their epoch already.
func (bs BalanceStats) AppendBinary(b []byte) ([]byte, error) {
	for _, v := range [...]int64{int64(bs.Fragments), int64(bs.MaxSize), int64(bs.MinSize), bs.TotalSize, int64(bs.Vf), int64(bs.CrossEdges)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, the inverse of
// AppendBinary; trailing bytes are rejected.
func (bs *BalanceStats) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	var v [6]int64
	for i := range v {
		v[i] = int64(r.Uint(math.MaxInt64))
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("fragment: balance stats: %w", err)
	}
	*bs = BalanceStats{Fragments: int(v[0]), MaxSize: int(v[1]), MinSize: int(v[2]),
		TotalSize: v[3], Vf: int(v[4]), CrossEdges: int(v[5])}
	return nil
}

// BalanceStats reports the current balance of the fragmentation. It takes
// the read lock, so it is safe to call concurrently with live updates.
func (fr *Fragmentation) BalanceStats() BalanceStats {
	fr.mu.RLock()
	defer fr.mu.RUnlock()
	return fr.balanceStatsLocked()
}

func (fr *Fragmentation) balanceStatsLocked() BalanceStats {
	bs := BalanceStats{Fragments: len(fr.frags), Vf: fr.vf, CrossEdges: fr.crossEdges}
	for i, f := range fr.frags {
		s := f.Size()
		bs.TotalSize += int64(s)
		if s > bs.MaxSize {
			bs.MaxSize = s
		}
		if i == 0 || s < bs.MinSize {
			bs.MinSize = s
		}
	}
	return bs
}

// Fingerprint digests the replica state a rebalance depends on — the
// graph (nodes, labels, tombstones, every edge) and the node-to-fragment
// assignment — into one FNV-1a hash. Replicas that rebuilt the same epoch
// must report the same fingerprint; a mismatch means a replica's state
// diverged (it restarted from stale files and missed updates), which
// would otherwise silently corrupt composed partial answers.
func (fr *Fragmentation) Fingerprint() uint64 {
	fr.mu.RLock()
	defer fr.mu.RUnlock()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xFF
			h *= prime64
			x >>= 8
		}
	}
	g := fr.g
	mix(uint64(g.NumNodes()))
	mix(uint64(g.NumEdges()))
	for v := 0; v < g.NumNodes(); v++ {
		if g.Deleted(graph.NodeID(v)) {
			mix(^uint64(0))
			continue
		}
		mix(uint64(fr.owner[v]))
		for _, c := range []byte(g.Label(graph.NodeID(v))) {
			h ^= uint64(c)
			h *= prime64
		}
		h ^= 0xFE // label terminator
		h *= prime64
		for _, w := range g.Out(graph.NodeID(v)) {
			mix(uint64(w))
		}
		mix(^uint64(1)) // adjacency terminator
	}
	return h
}
