package gen

import "distreach/internal/graph"

// CommunitiesConfig controls the stochastic-block-model style generator.
type CommunitiesConfig struct {
	Communities int      // number of blocks
	Size        int      // nodes per block
	InDegree    int      // average intra-block out-degree per node
	OutDegree   int      // average cross-block out-degree per node
	Labels      []string // label alphabet (nil = unlabeled)
	LabelSkew   float64
	Seed        uint64
}

// Communities generates a graph with planted community structure: dense
// blocks with sparse cross-block edges. A locality-aware fragmentation
// (fragment.Contiguous with block-ordered IDs) recovers the blocks and so
// produces far smaller |Vf| than random partitioning — the setup behind
// BenchmarkAblationPartitioner. Node IDs are block ordered:
// block b holds IDs [b·Size, (b+1)·Size).
func Communities(cfg CommunitiesConfig) *graph.Graph {
	rng := NewRNG(cfg.Seed)
	n := cfg.Communities * cfg.Size
	b := graph.NewBuilder(n)
	var z *Zipf
	if len(cfg.Labels) > 0 {
		z = NewZipf(rng, len(cfg.Labels), cfg.LabelSkew)
	}
	for i := 0; i < n; i++ {
		if z != nil {
			b.AddNode(cfg.Labels[z.Next()])
		} else {
			b.AddNode("")
		}
	}
	for c := 0; c < cfg.Communities; c++ {
		base := c * cfg.Size
		for i := 0; i < cfg.Size; i++ {
			u := graph.NodeID(base + i)
			for d := 0; d < cfg.InDegree; d++ {
				b.AddEdge(u, graph.NodeID(base+rng.Intn(cfg.Size)))
			}
			for d := 0; d < cfg.OutDegree; d++ {
				other := rng.Intn(n)
				b.AddEdge(u, graph.NodeID(other))
			}
		}
	}
	return b.MustBuild()
}
