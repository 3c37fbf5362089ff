package fragment_test

import (
	"sync"
	"testing"

	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// solveVia decides qr(s, t) as a wire coordinator does: every fragment's
// rows plus its query part, whose TargetOnlyReach reads the index.
func solveVia(fr *fragment.Fragmentation, s, t graph.NodeID, opt *core.Options) bool {
	if s == t {
		return true
	}
	var partials []*core.Rows
	for _, f := range fr.Fragments() {
		partials = append(partials, core.LocalRows(f), core.SourceOnlyReach(f, s, t), core.TargetOnlyReach(f, t, opt))
	}
	return core.SolveReach(partials, s)
}

// TestIndexAnswersUnderChurnAndRebalance is the end-to-end agreement
// check for the indexed path: across churn batches and live rebalances —
// with queries racing the async index rebuilds the whole time — the
// indexed evaluation must agree with direct evaluation on every query.
// Run under -race this also exercises install/retire vs the label probe.
func TestIndexAnswersUnderChurnAndRebalance(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 200, Edges: 700, Labels: []string{"A"}, Seed: 61})
	fr, err := fragment.Partition(g, fragment.EdgeCutPartitioner{Seed: 61}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 16) // tight enough that fallbacks happen too
	rep := fragment.NewReplica(fr)
	rng := gen.NewRNG(62)
	epoch := uint64(1)
	for round := 0; round < 12; round++ {
		cur, _ := rep.Current()
		// Churn: a burst of mutations that stale and retire indexes.
		for i := 0; i < 25; i++ {
			n := cur.Graph().NumNodes()
			var ops []fragment.Op
			switch rng.Intn(4) {
			case 0, 1:
				ops = []fragment.Op{{Kind: fragment.OpInsertEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))}}
			case 2:
				ops = []fragment.Op{{Kind: fragment.OpDeleteEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))}}
			case 3:
				ops = []fragment.Op{{Kind: fragment.OpInsertNode, Label: "A", Frag: -1}}
			}
			if _, err := cur.Apply(ops); err != nil {
				continue // tombstone reference: rejected atomically
			}
		}
		if round%4 == 1 {
			if ok, err := rep.Rebalance(epoch, fragment.EdgeCutPartitioner{Seed: uint64(round)}); !ok || err != nil {
				t.Fatalf("round %d: rebalance ok=%v err=%v", round, ok, err)
			}
			epoch++
			cur, _ = rep.Current()
		}
		// Queries race the async rebuilds the churn kicked off: stale
		// fragments must answer through the fallback path, fresh installs
		// must swap in without tearing a reader.
		var wg sync.WaitGroup
		var mu sync.Mutex
		var failures []string
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				qrng := gen.NewRNG(seed)
				n := cur.Graph().NumNodes()
				for q := 0; q < 40; q++ {
					s, tt := graph.NodeID(qrng.Intn(n)), graph.NodeID(qrng.Intn(n))
					indexed := solveVia(cur, s, tt, nil)
					direct := solveVia(cur, s, tt, &core.Options{NoFragmentIndex: true})
					if indexed != direct {
						mu.Lock()
						failures = append(failures, "")
						mu.Unlock()
						return
					}
				}
			}(uint64(100*round + w))
		}
		wg.Wait()
		if len(failures) > 0 {
			t.Fatalf("round %d: indexed evaluation disagreed with direct evaluation", round)
		}
	}
	cur, _ := rep.Current()
	cur.WaitReachIndexes()
	st := cur.ReachIndexStats()
	if st.Hits == 0 {
		t.Fatalf("no index hits recorded over the whole run: %+v", st)
	}
	if st.Rebuilds == 0 {
		t.Fatalf("no rebuilds recorded: %+v", st)
	}
	if err := cur.Validate(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
}
