package fragment

import (
	"time"

	"distreach/internal/reachindex"
)

// Per-fragment reachability index lifecycle. The index itself lives in
// internal/reachindex; this file owns when it is built, invalidated and
// swapped. The index is a cache of the fragment: nothing persists it, and
// a restarted or newly installed replica rebuilds it from its state.
//
//   - EnableReachIndex sets the byte budget and kicks an asynchronous
//     build per fragment. Budget <= 0 disables indexing (and drops any
//     live indexes).
//   - Every mutation that changes a fragment's adjacency or its slots
//     (update.go: edges, virtual nodes, node ops; compaction) retires the
//     fragment's labels under the write lock, with its LocalSCC and
//     LocalReverse, through the one hook dropDerived. A query part on a
//     fragment without labels searches it from the target
//     (core.TargetOnlyReach) — the same answer, only slower on some
//     shapes. A change of in-node status alone keeps the labels: local
//     reachability does not depend on it.
//   - Apply/Compact/Rebalance/Install schedule asynchronous rebuilds for
//     the affected fragments. A rebuild runs on one goroutine per
//     fragment and holds the fragmentation's read lock (excluding
//     updates, not queries) while it computes the new index from the
//     fragment's own adjacency and LocalSCC, then installs it with an
//     atomic pointer swap — the same serve-while-rebuilding discipline as
//     the 'R' rebalance frames. Single-flight per fragment: a trigger that
//     finds a builder in flight is dropped, which is safe because the
//     builder clears its flag before it releases the read lock — any
//     mutation the install does not reflect lands after the clear and
//     schedules its own build.
//   - Probes count on the fragment (IndexProbe), not on the index, so a
//     swap loses none of them.

// EnableReachIndex sets the per-fragment label budget in bytes and
// asynchronously (re)builds every fragment's index. A budget <= 0 turns
// indexing off and drops the live indexes. Callers that need the
// indexes ready (tests, benchmarks) follow with WaitReachIndexes.
func (fr *Fragmentation) EnableReachIndex(budget int64) {
	fr.idxBudget.Store(budget)
	if budget <= 0 {
		for _, f := range fr.frags {
			f.idx.Store(nil)
		}
		return
	}
	for _, f := range fr.frags {
		fr.rebuildReachIndexAsync(f)
	}
}

// ReachIndexBudget reports the configured budget (<= 0: disabled).
func (fr *Fragmentation) ReachIndexBudget() int64 { return fr.idxBudget.Load() }

// WaitReachIndexes blocks until every scheduled index rebuild has
// finished. Must not be called while holding the fragmentation's write
// lock (builders need the read lock).
func (fr *Fragmentation) WaitReachIndexes() { fr.idxWG.Wait() }

// ReachIndex returns the fragment's current index, or nil while none is
// installed (disabled, retired by a mutation, or still building). An
// index never changes once installed: a mutation retires it whole.
func (f *Fragment) ReachIndex() *reachindex.Index { return f.idx.Load() }

// IndexProbe is the reachability index one evaluation loaded from its
// fragment. Its probes count on the fragment, so those of an index that
// has been swapped out since still reach ReachIndexStats.
type IndexProbe struct {
	f   *Fragment
	idx *reachindex.Index
}

// IndexProbe loads the fragment's current index for one evaluation.
func (f *Fragment) IndexProbe() IndexProbe { return IndexProbe{f, f.idx.Load()} }

// Reaches reports whether local slot u reaches slot v as the loaded
// index's labels decide it (reachindex.Index.Reaches) and counts the probe
// on the fragment: a hit, or a fallback the caller answers by searching.
// With no index loaded it reports false, reachindex.OutcomeNoIndex and
// counts nothing.
func (p IndexProbe) Reaches(u, v int32) (reached bool, out reachindex.Outcome) {
	if p.idx == nil {
		return false, reachindex.OutcomeNoIndex
	}
	reached, out = p.idx.Reaches(u, v)
	if out == reachindex.OutcomeHit {
		p.f.idxHits.Add(1)
	} else {
		p.f.idxFallbacks.Add(1)
	}
	return reached, out
}

// rebuildReachIndexAsync schedules one asynchronous index rebuild for f,
// coalescing with an already-running one.
func (fr *Fragmentation) rebuildReachIndexAsync(f *Fragment) {
	budget := fr.idxBudget.Load()
	if budget <= 0 {
		return
	}
	if !f.idxBuilding.CompareAndSwap(false, true) {
		return // the builder in flight reads the state after the caller's change
	}
	fr.idxWG.Add(1)
	go func() {
		defer fr.idxWG.Done()
		start := time.Now()
		fr.mu.RLock()
		f.buildReachIndexLocked(budget)
		// Clear the flag while still excluding mutations: one that lands
		// after the unlock finds it clear and schedules a fresh build.
		f.idxBuilding.Store(false)
		fr.mu.RUnlock()
		d := time.Since(start).Nanoseconds()
		fr.idxLastBuild.Store(d)
		fr.idxTotalBuild.Add(d)
		fr.idxRebuilds.Add(1)
	}()
}

// buildReachIndexLocked computes f's index from its own adjacency and
// LocalSCC and installs it. Caller holds at least the fragmentation's read
// lock.
func (f *Fragment) buildReachIndexLocked(budget int64) {
	f.idx.Store(reachindex.Build(reachindex.Spec{
		N:      f.NumTotal(),
		Out:    f.Out,
		Comp:   f.LocalSCC(),
		Budget: budget,
	}))
}

// ReachIndexStats aggregates the index state across fragments for /stats
// and bench -json.
type ReachIndexStats struct {
	Enabled     bool
	BudgetBytes int64
	LabelBytes  int64 // bytes held by the live indexes
	Fragments   int   // fragments with a live index installed
	Hits        int64 // index probes the labels answered (cumulative)
	Fallbacks   int64 // index probes that fell back to a search
	Rebuilds    int64 // asynchronous builds completed
	LastBuild   time.Duration
	TotalBuild  time.Duration
}

// HitRate reports hits/(hits+fallbacks), 0 when no indexed query ran.
func (s ReachIndexStats) HitRate() float64 {
	if s.Hits+s.Fallbacks == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Fallbacks)
}

// ReachIndexStats reports the current aggregate index statistics.
func (fr *Fragmentation) ReachIndexStats() ReachIndexStats {
	st := ReachIndexStats{
		BudgetBytes: fr.idxBudget.Load(),
		Rebuilds:    fr.idxRebuilds.Load(),
		LastBuild:   time.Duration(fr.idxLastBuild.Load()),
		TotalBuild:  time.Duration(fr.idxTotalBuild.Load()),
	}
	st.Enabled = st.BudgetBytes > 0
	for _, f := range fr.frags {
		st.Hits += f.idxHits.Load()
		st.Fallbacks += f.idxFallbacks.Load()
		if idx := f.idx.Load(); idx != nil {
			st.Fragments++
			st.LabelBytes += idx.LabelBytes()
		}
	}
	return st
}
