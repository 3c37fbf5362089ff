package reachindex

import (
	"math/rand"
	"testing"

	"distreach/internal/graph"
)

// randomGraph builds a random directed graph with n nodes and ~m edges.
func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	b.AddNodes(n, "A")
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// buildFor indexes g as a fragment's slots: its node IDs are the slots and
// its adjacency the fragment's.
func buildFor(g *graph.Graph, budget int64) *Index {
	comp, _ := g.SCC()
	adj := make([][]int32, g.NumNodes())
	for v := range adj {
		for _, w := range g.Out(graph.NodeID(v)) {
			adj[v] = append(adj[v], int32(w))
		}
	}
	return Build(Spec{
		N:      g.NumNodes(),
		Out:    func(l int32) []int32 { return adj[l] },
		Comp:   comp,
		Budget: budget,
	})
}

func TestReachesMatchesGraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		g := randomGraph(rng, n, 3*n)
		ix := buildFor(g, 1<<30)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				reached, out := ix.Reaches(int32(u), int32(v))
				if out != OutcomeHit {
					t.Fatalf("seed %d: (%d,%d) undecided (outcome %d) under unlimited budget", seed, u, v, out)
				}
				if want := g.Reachable(graph.NodeID(u), graph.NodeID(v)); reached != want {
					t.Fatalf("seed %d: Reaches(%d,%d)=%v want %v", seed, u, v, reached, want)
				}
			}
		}
	}
}

func TestBudgetNeverWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 120, 360)
	decidedSome, overBudget := false, false
	for _, budget := range []int64{32, 128, 1024, 1 << 20} {
		ix := buildFor(g, budget)
		if ix.LabelBytes() > budget {
			t.Fatalf("budget %d: label bytes %d exceed it", budget, ix.LabelBytes())
		}
		for u := 0; u < 120; u++ {
			for v := 0; v < 120; v++ {
				reached, out := ix.Reaches(int32(u), int32(v))
				if out != OutcomeHit {
					overBudget = overBudget || out == OutcomeOverBudget
					continue
				}
				decidedSome = true
				if want := g.Reachable(graph.NodeID(u), graph.NodeID(v)); reached != want {
					t.Fatalf("budget %d: Reaches(%d,%d)=%v want %v", budget, u, v, reached, want)
				}
			}
		}
	}
	if !decidedSome || !overBudget {
		t.Fatalf("decided some: %v, some over budget: %v; want both", decidedSome, overBudget)
	}
}

// TestReachesUnslotted: a slot outside the build's range — one a mutation
// added after it, or a negative one — is undecided, never answered.
func TestReachesUnslotted(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddNodes(3, "A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	ix := buildFor(b.MustBuild(), 1<<20)
	if reached, out := ix.Reaches(0, 2); out != OutcomeHit || !reached {
		t.Fatalf("Reaches(0,2) = %v, outcome %d; want a hit", reached, out)
	}
	for _, p := range [][2]int32{{2, 3}, {3, 0}, {-1, 0}, {0, -1}} {
		if _, out := ix.Reaches(p[0], p[1]); out != OutcomeUnslotted {
			t.Fatalf("Reaches(%d,%d): outcome %d, want unslotted", p[0], p[1], out)
		}
	}
}
