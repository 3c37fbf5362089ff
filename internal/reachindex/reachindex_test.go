package reachindex

import (
	"math/rand"
	"sort"
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

// buildFor indexes g with every third slot marked boundary/source — a
// fragment-shaped setup without needing a real Fragmentation; slots are
// their own global IDs.
func buildFor(g *graph.Graph, budget int64) *Index {
	comp, nc := g.SCC()
	var sources []int32
	for l := int32(0); int(l) < g.NumNodes(); l += 3 {
		sources = append(sources, l)
	}
	ix := Build(Spec{
		Graph:    g,
		Comp:     comp,
		NC:       nc,
		Boundary: func(l int32) bool { return l%3 == 0 },
		Sources:  sources,
		Budget:   budget,
	})
	ix.PrecomputeGlobals(func(l int32) graph.NodeID { return graph.NodeID(l) })
	return ix
}

func TestReachesMatchesGraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		g := randomGraph(rng, n, 3*n)
		ix := buildFor(g, 1<<30)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				reached, decided := ix.Reaches(int32(u), int32(v))
				if !decided {
					t.Fatalf("seed %d: (%d,%d) undecided under unlimited budget", seed, u, v)
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
	decidedSome := false
	for _, budget := range []int64{32, 128, 1024, 1 << 20} {
		ix := buildFor(g, budget)
		if ix.LabelBytes() > budget {
			t.Fatalf("budget %d: label bytes %d exceed it", budget, ix.LabelBytes())
		}
		for u := 0; u < 120; u++ {
			for v := 0; v < 120; v++ {
				reached, decided := ix.Reaches(int32(u), int32(v))
				if !decided {
					continue
				}
				decidedSome = true
				if want := g.Reachable(graph.NodeID(u), graph.NodeID(v)); reached != want {
					t.Fatalf("budget %d: Reaches(%d,%d)=%v want %v", budget, u, v, reached, want)
				}
			}
		}
	}
	if !decidedSome {
		t.Fatal("no budget decided anything")
	}
}

// referenceFrontier recomputes the frontier-cut variable list the slow way
// (independent BFS), to pin Equation's precomputed lists.
func referenceFrontier(g *graph.Graph, comp []int32, boundary func(int32) bool, v int32) []int32 {
	seen := make([]bool, g.NumNodes())
	queue := []int32{v}
	seen[v] = true
	var out []int32
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x != v && boundary(x) && comp[x] != comp[v] {
			out = append(out, x)
			continue
		}
		for _, w := range g.Out(graph.NodeID(x)) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, int32(w))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestEquationMatchesReferenceBFS(t *testing.T) {
	boundary := func(l int32) bool { return l%3 == 0 }
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 12 + rng.Intn(60)
		g := randomGraph(rng, n, 3*n)
		comp, _ := g.SCC()
		ix := buildFor(g, 1<<30)
		for l := int32(0); int(l) < n; l += 3 {
			vars, _, ok := ix.EquationGlobal(l, -1, false)
			if !ok {
				t.Fatalf("seed %d: source %d not indexed under unlimited budget", seed, l)
			}
			want := referenceFrontier(g, comp, boundary, l)
			if len(vars) != len(want) {
				t.Fatalf("seed %d: source %d frontier %v want %v", seed, l, vars, want)
			}
			for i := range vars {
				if int32(vars[i]) != want[i] {
					t.Fatalf("seed %d: source %d frontier %v want %v", seed, l, vars, want)
				}
			}
			// reachesT must track label-decided local reachability.
			for tt := int32(0); int(tt) < n; tt++ {
				_, reachesT, ok := ix.EquationGlobal(l, tt, true)
				if !ok {
					t.Fatalf("seed %d: source %d lost its index entry", seed, l)
				}
				if want := g.Reachable(graph.NodeID(l), graph.NodeID(tt)); reachesT != want {
					t.Fatalf("seed %d: EquationGlobal(%d, t=%d) reachesT=%v want %v", seed, l, tt, reachesT, want)
				}
			}
		}
	}
}

func TestMarkDirtyAncestorCone(t *testing.T) {
	// 0 -> 1 -> 2: dirtying 1 must invalidate its ancestors (0, 1) but
	// leave the untouched descendant 2 decided.
	b := graph.NewBuilder(3)
	b.AddNodes(3, "A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	comp, nc := g.SCC()
	ix := Build(Spec{Graph: g, Comp: comp, NC: nc, Budget: 1 << 20})
	if _, decided := ix.Reaches(0, 2); !decided {
		t.Fatal("fresh index undecided")
	}
	ix.MarkDirty(1)
	if !ix.AnyStale() {
		t.Fatal("AnyStale false after MarkDirty")
	}
	for _, u := range []int32{0, 1} {
		if _, decided := ix.Reaches(u, 2); decided {
			t.Fatalf("slot %d should be stale", u)
		}
	}
	if reached, decided := ix.Reaches(2, 0); !decided || reached {
		t.Fatalf("descendant 2 should stay decided (got decided=%v reached=%v)", decided, reached)
	}
	// Out-of-range slots mark everything.
	ix2 := Build(Spec{Graph: g, Comp: comp, NC: nc, Budget: 1 << 20})
	ix2.MarkDirty(99)
	if _, decided := ix2.Reaches(2, 0); decided {
		t.Fatal("out-of-range MarkDirty should stale the whole index")
	}
}
