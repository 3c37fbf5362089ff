package reachindex

import (
	"bytes"
	"math/rand"
	"testing"

	"distreach/internal/graph"
)

// buildWith is buildFor with an explicit worker count.
func buildWith(g *graph.Graph, budget int64, workers int) *Index {
	comp, nc := g.SCC()
	var sources []int32
	for l := int32(0); int(l) < g.NumNodes(); l += 3 {
		sources = append(sources, l)
	}
	return Build(Spec{
		Graph:    g,
		Comp:     comp,
		NC:       nc,
		Boundary: func(l int32) bool { return l%3 == 0 },
		Sources:  sources,
		Budget:   budget,
		Workers:  workers,
	})
}

// TestParallelBuildByteIdentical is the replica-agreement oracle for the
// parallel builder: across 50 random graphs, every worker count must
// produce the byte-for-byte serial index, for tight and loose budgets.
// Replicas rebuild their indexes independently, so any worker-count-
// dependent output would let two correct replicas disagree.
func TestParallelBuildByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		n := 10 + rng.Intn(120)
		g := randomGraph(rng, n, 1+3*n*(1+rng.Intn(2))/2)
		for _, budget := range []int64{64, 2048, 1 << 20} {
			serialIx := buildWith(g, budget, 1)
			serial, err := serialIx.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := buildWith(g, budget, workers).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serial, par) {
					t.Fatalf("seed %d budget %d: %d-worker build differs from serial (%d vs %d bytes)",
						seed, budget, workers, len(par), len(serial))
				}
			}
			// And the serial build itself must never be wrong.
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					reached, decided := serialIx.Reaches(int32(u), int32(v))
					if !decided {
						continue
					}
					if want := g.Reachable(graph.NodeID(u), graph.NodeID(v)); reached != want {
						t.Fatalf("seed %d budget %d: Reaches(%d,%d)=%v want %v",
							seed, budget, u, v, reached, want)
					}
				}
			}
		}
	}
}
