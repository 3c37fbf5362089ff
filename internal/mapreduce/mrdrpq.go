package mapreduce

import (
	"fmt"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// MRdRPQResult reports the outcome and accounting of one MRdRPQ execution.
type MRdRPQResult struct {
	Answer   bool
	Stats    Stats
	Fragment *fragment.Fragmentation // the partition produced by preMRPQ
	PreWall  time.Duration           // coordinator time: automaton + partitioning
}

// MRdRPQ evaluates the regular reachability query qrr(s, t, R) in the
// MapReduce framework (algorithm MRdRPQ, Fig. 10):
//
//   - preMRPQ: the coordinator builds the query automaton Gq(R) and
//     partitions G into K fragments of roughly |G|/K nodes each (parG; we
//     use the contiguous split that mirrors Hadoop's default input splits),
//     then sends pair <i, (Fi, Gq)> to mapper i;
//   - mapRPQ: each mapper runs localEvalr as its Map function, emitting
//     <1, rvset_i>;
//   - reduceRPQ: the single reducer assembles all rvsets with evalDGr and
//     emits <0, ans>.
//
// The ECC is O(|Fm| + |R|²·|Vf|²): the mapper input is one fragment, the
// reducer input is the concatenated partial answers.
func MRdRPQ(g *graph.Graph, s, t graph.NodeID, a *automaton.Automaton, mappers int) (MRdRPQResult, error) {
	start := time.Now()
	fr, err := fragment.Contiguous(g, mappers)
	if err != nil {
		return MRdRPQResult{}, fmt.Errorf("mapreduce: parG failed: %w", err)
	}
	pre := time.Since(start)
	ans, st := MRdRPQOn(fr, s, t, a, mappers)
	return MRdRPQResult{Answer: ans, Stats: st, Fragment: fr, PreWall: pre}, nil
}

// MRdRPQOn runs the map and reduce phases over an existing fragmentation
// (one input pair per fragment); it lets experiments vary the partitioning
// strategy independently of the MapReduce machinery.
func MRdRPQOn(fr *fragment.Fragmentation, s, t graph.NodeID, a *automaton.Automaton, mappers int) (bool, Stats) {
	if s == t && a.AcceptsLabels(nil) {
		return true, Stats{Mappers: mappers, Reducers: 1}
	}
	inputs := make([]Pair[int, *fragment.Fragment], 0, fr.Card())
	for i, f := range fr.Fragments() {
		inputs = append(inputs, Pair[int, *fragment.Fragment]{Key: i, Value: f})
	}
	job := Job[int, *fragment.Fragment, int, *core.Rows, bool]{
		Map: func(_ int, f *fragment.Fragment, emit func(int, *core.Rows)) {
			emit(1, core.LocalEvalRPQ(f, s, t, a))
		},
		Reduce: func(_ int, rvsets []*core.Rows) bool {
			return core.SolveRPQ(rvsets, s, a)
		},
		InputBytes: func(_ int, f *fragment.Fragment) int {
			return f.EncodedSize() + a.EncodedSize()
		},
		InterBytes: func(_ int, f *fragment.Fragment, _ int, rv *core.Rows) int { return core.RPQWireSize(f, rv, a) },
		Reducers:   1,
	}
	results, st := Run(job, inputs, mappers)
	for _, r := range results {
		if r.Key == 1 {
			return r.Value, st
		}
	}
	return false, st
}
