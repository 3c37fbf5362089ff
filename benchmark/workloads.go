package main

import (
	"fmt"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// numSites is k, the fragment and site count of every deployment: the
// default of cmd/serve.
const numSites = 4

// spec is the frozen definition of one workload. rateMid and rateHi are
// the open-loop rates: about 50% and 80% of qps_closed as measured at the
// commit that introduced this benchmark. They are constants, so that a
// faster program is measured at the same offered load, not a higher one.
type spec struct {
	name        string
	rateMid     float64
	rateHi      float64
	partitioner string
	zipf        float64 // skew of pool draws; 0 = uniform
	writeRate   float64 // writes per second beside the reads; 0 = read-only rounds
	replay      bool    // writes change answers: check by LSN replay, not against query.want
	gateway     bool    // drive a cmd/serve subprocess over HTTP, not a Coordinator

	graph func(toy bool) *graph.Graph
	pool  func(g *graph.Graph, rng *gen.RNG, toy bool) ([]query, error)
}

// graphSeed generates every workload's graph. The graphs do not follow the
// run's seed: |Vf| and the size of the boundary equations — the paper's
// cost parameters — differ by 15% and more between two generated graphs of
// the same shape, which would drown every regression bound. The seed draws
// everything else: query pools, write streams, arrival schedules.
const graphSeed = 1

func size(toy bool, full, small int) int {
	if toy {
		return small
	}
	return full
}

func cutGraphFor(toy bool) *graph.Graph {
	return cutGraph(graphSeed, size(toy, 10876, 400))
}

// localSize is the community size of reach_local's graph.
func localSize(toy bool) int { return size(toy, 3000, 100) }

func localGraphFor(toy bool) *graph.Graph {
	return localGraph(graphSeed, size(toy, 16, 8), localSize(toy))
}

var specs = []spec{
	{
		name: "reach_cut", rateMid: 80, rateHi: 130, partitioner: "random",
		graph: cutGraphFor,
		pool: func(g *graph.Graph, rng *gen.RNG, toy bool) ([]query, error) {
			return reachPool(g, rng, size(toy, 2048, 128), uniformTarget(g, rng))
		},
	},
	{
		name: "reach_local", rateMid: 1000, rateHi: 1600, partitioner: "contiguous",
		graph: localGraphFor,
		pool: func(g *graph.Graph, rng *gen.RNG, toy bool) ([]query, error) {
			return reachPool(g, rng, size(toy, 4096, 128), localTarget(g, rng, localSize(toy)))
		},
	},
	{
		name: "mixed_churn", rateMid: 50, rateHi: 80, partitioner: "random",
		writeRate: 20, replay: true,
		graph: cutGraphFor,
		pool: func(g *graph.Graph, rng *gen.RNG, toy bool) ([]query, error) {
			return mixedPool(g, rng, size(toy, 400, 40))
		},
	},
	{
		name: "gateway_hot", rateMid: 700, rateHi: 1100, partitioner: "contiguous",
		zipf: 1.1, writeRate: 2, gateway: true,
		graph: localGraphFor,
		pool: func(g *graph.Graph, rng *gen.RNG, toy bool) ([]query, error) {
			return reachPool(g, rng, size(toy, 8192, 256), localTarget(g, rng, localSize(toy)))
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything generated from the seed for one workload.
type inputs struct {
	g         *graph.Graph // pristine; every deployment gets its own clone
	buildMS   float64      // what generating g took
	pool      []query
	trueShare float64
	writes    []fragment.Op // the write stream, in order
}

// probeWrites is how many writes fragment.apply_us is measured over; the
// read-only workloads generate that many and no more.
const probeWrites = 40

// generate builds the workload's inputs. total is the length of the timed
// rounds, which bounds how many writes the stream needs.
func generate(sp spec, seed uint64, toy bool, total time.Duration) (*inputs, error) {
	t0 := time.Now()
	in := &inputs{g: sp.graph(toy)}
	in.buildMS = float64(time.Since(t0)) / float64(time.Millisecond)
	var err error
	if in.pool, err = sp.pool(in.g, subRNG(seed, "pool"), toy); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	in.pool = arrange(in.pool, in.g.NumNodes(), subRNG(seed, "arrange"))
	in.trueShare = trueShare(in.pool)
	if in.trueShare < 0.3 || in.trueShare > 0.7 {
		return nil, fmt.Errorf("%s: pool true share %.2f is outside [0.3, 0.7]", sp.name, in.trueShare)
	}
	nWrites := probeWrites
	if sp.writeRate > 0 {
		nWrites = int(sp.writeRate*total.Seconds()) + 8
	}
	if sp.replay {
		in.writes = churnOps(in.g, subRNG(seed, "writes"), nWrites)
		return in, nil
	}
	edges, err := shortcutEdges(in.g, subRNG(seed, "writes"), (nWrites+1)/2)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	in.writes = shortcutOps(edges)
	return in, nil
}
