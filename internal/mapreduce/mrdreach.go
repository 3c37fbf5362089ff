package mapreduce

import (
	"fmt"

	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// The paper notes that MRdRPQ "can be easily adapted to evaluate (bounded)
// reachability queries, which are special cases of regular reachability
// queries". This file is that adaptation: MRdReach and MRdDist reuse the
// same partition/map/shuffle/reduce structure with localEval (resp.
// localEvald) as the Map function and evalDG (resp. evalDGd) as the Reduce
// function.

// MRdReach evaluates the reachability query qr(s, t) on MapReduce.
func MRdReach(g *graph.Graph, s, t graph.NodeID, mappers int) (bool, Stats, error) {
	fr, err := fragment.Contiguous(g, mappers)
	if err != nil {
		return false, Stats{}, fmt.Errorf("mapreduce: parG failed: %w", err)
	}
	if s == t {
		return true, Stats{Mappers: mappers, Reducers: 1}, nil
	}
	inputs := make([]Pair[int, *fragment.Fragment], 0, fr.Card())
	for i, f := range fr.Fragments() {
		inputs = append(inputs, Pair[int, *fragment.Fragment]{Key: i, Value: f})
	}
	job := Job[int, *fragment.Fragment, int, *core.Rows, bool]{
		Map: func(_ int, f *fragment.Fragment, emit func(int, *core.Rows)) {
			emit(1, core.LocalEvalReach(f, s, t, nil))
		},
		Reduce: func(_ int, rvsets []*core.Rows) bool {
			return core.SolveReach(rvsets, s)
		},
		InputBytes: func(_ int, f *fragment.Fragment) int { return f.EncodedSize() + 12 },
		InterBytes: func(_ int, rv *core.Rows) int {
			// Boundary-variable space is not in scope here; use a generous
			// sparse-only estimate.
			return core.ReachWireSize(rv, 1<<20)
		},
		Reducers: 1,
	}
	results, st := Run(job, inputs, mappers)
	for _, r := range results {
		if r.Key == 1 {
			return r.Value, st, nil
		}
	}
	return false, st, nil
}

// MRdDist evaluates the bounded reachability query qbr(s, t, l) on
// MapReduce. It returns the answer and the exact distance when it is
// within l (bes.Inf otherwise).
func MRdDist(g *graph.Graph, s, t graph.NodeID, l, mappers int) (bool, int64, Stats, error) {
	fr, err := fragment.Contiguous(g, mappers)
	if err != nil {
		return false, bes.Inf, Stats{}, fmt.Errorf("mapreduce: parG failed: %w", err)
	}
	if s == t {
		return l >= 0, 0, Stats{Mappers: mappers, Reducers: 1}, nil
	}
	if l <= 0 {
		return false, bes.Inf, Stats{Mappers: mappers, Reducers: 1}, nil
	}
	inputs := make([]Pair[int, *fragment.Fragment], 0, fr.Card())
	for i, f := range fr.Fragments() {
		inputs = append(inputs, Pair[int, *fragment.Fragment]{Key: i, Value: f})
	}
	job := Job[int, *fragment.Fragment, int, *core.Rows, int64]{
		Map: func(_ int, f *fragment.Fragment, emit func(int, *core.Rows)) {
			emit(1, core.LocalEvalDist(f, s, t, l))
		},
		Reduce: func(_ int, rvsets []*core.Rows) int64 {
			return core.SolveDist(rvsets, s)
		},
		InputBytes: func(_ int, f *fragment.Fragment) int { return f.EncodedSize() + 12 },
		Reducers:   1,
	}
	results, st := Run(job, inputs, mappers)
	for _, r := range results {
		if r.Key == 1 {
			return r.Value <= int64(l), r.Value, st, nil
		}
	}
	return false, bes.Inf, st, nil
}
