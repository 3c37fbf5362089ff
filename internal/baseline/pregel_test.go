package baseline

import (
	"testing"

	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

func setup(t *testing.T, n, m, k int, seed uint64) (*graph.Graph, *fragment.Fragmentation, *cluster.Run) {
	t.Helper()
	g := gen.Uniform(gen.Config{Nodes: n, Edges: m, Seed: seed})
	fr, err := fragment.Random(g, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(k, cluster.NetModel{})
	return g, fr, cl.NewRun()
}

// TestBFSDistances runs the canonical Pregel program (single-source
// distances) and compares with the centralized oracle.
func TestBFSDistances(t *testing.T) {
	g, fr, run := setup(t, 60, 240, 4, 1)
	const inf = int32(1) << 30
	src := graph.NodeID(0)
	res := Run[int32, int32](run, fr, Config[int32, int32]{
		Init:          func(v graph.NodeID) int32 { return inf },
		InitialActive: []graph.NodeID{src},
		Compute: func(ctx *Context[int32], v graph.NodeID, val *int32, msgs []int32) {
			defer ctx.VoteToHalt()
			best := inf
			if v == src && ctx.Superstep == 0 {
				best = 0
			}
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best < *val {
				*val = best
				ctx.SendToNeighbors(best + 1)
			}
		},
	})
	want := g.DistancesFrom(src, -1)
	for v := 0; v < g.NumNodes(); v++ {
		got := res.Values[v]
		if want[v] < 0 {
			if got != inf {
				t.Fatalf("node %d: got %d, want unreachable", v, got)
			}
			continue
		}
		if got != want[v] {
			t.Fatalf("node %d: got %d, want %d", v, got, want[v])
		}
	}
}

func TestSignalStopsEarly(t *testing.T) {
	_, fr, run := setup(t, 50, 200, 3, 2)
	res := Run[bool, struct{}](run, fr, Config[bool, struct{}]{
		Compute: func(ctx *Context[struct{}], v graph.NodeID, val *bool, msgs []struct{}) {
			ctx.Signal()
			ctx.VoteToHalt()
		},
	})
	if !res.Signalled {
		t.Fatal("signal lost")
	}
	if res.Supersteps != 1 {
		t.Fatalf("ran %d supersteps after signal", res.Supersteps)
	}
}

func TestMaxSuperstepsCap(t *testing.T) {
	_, fr, run := setup(t, 20, 80, 2, 3)
	res := Run[int, int](run, fr, Config[int, int]{
		MaxSupersteps: 3,
		Compute: func(ctx *Context[int], v graph.NodeID, val *int, msgs []int) {
			// Never halt: always message self to stay alive.
			ctx.Send(v, 1)
		},
	})
	if res.Supersteps != 3 {
		t.Fatalf("supersteps = %d, want cap 3", res.Supersteps)
	}
}

func TestNonHaltedVertexStaysActive(t *testing.T) {
	_, fr, run := setup(t, 10, 0, 2, 4)
	steps := 0
	Run[int, int](run, fr, Config[int, int]{
		InitialActive: []graph.NodeID{0},
		MaxSupersteps: 5,
		Compute: func(ctx *Context[int], v graph.NodeID, val *int, msgs []int) {
			steps++
			if steps >= 3 {
				ctx.VoteToHalt()
			}
			// Not voting to halt: must be re-invoked next superstep even
			// without messages.
		},
	})
	if steps != 3 {
		t.Fatalf("vertex computed %d times, want 3", steps)
	}
}

func TestCrossFragmentMessagesAreAccounted(t *testing.T) {
	// A two-node chain split across two fragments forces one cross message.
	b := graph.NewBuilder(2)
	b.AddNode("")
	b.AddNode("")
	b.AddEdge(0, 1)
	g := b.MustBuild()
	fr, err := fragment.Build(g, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(2, cluster.NetModel{})
	run := cl.NewRun()
	Run[bool, struct{}](run, fr, Config[bool, struct{}]{
		InitialActive: []graph.NodeID{0},
		Compute: func(ctx *Context[struct{}], v graph.NodeID, val *bool, msgs []struct{}) {
			defer ctx.VoteToHalt()
			if !*val {
				*val = true
				ctx.SendToNeighbors(struct{}{})
			}
		},
	})
	rep := run.Finish()
	if rep.Visits[1] != 1 {
		t.Fatalf("cross message not accounted as a visit: %v", rep.Visits)
	}
	if rep.Bytes == 0 {
		t.Fatal("cross message bytes not accounted")
	}
}

// TestLabelPropagation runs a second vertex program — weakly-connected
// component labeling by min-ID propagation over both edge directions — to
// show the substrate is not BFS-specific.
func TestLabelPropagation(t *testing.T) {
	// Two disjoint cycles: components {0..4} and {5..9}.
	b := graph.NewBuilder(10)
	for i := 0; i < 10; i++ {
		b.AddNode("")
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%5))
		b.AddEdge(graph.NodeID(5+i), graph.NodeID(5+(i+1)%5))
	}
	g := b.MustBuild()
	fr, err := fragment.Build(g, []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(2, cluster.NetModel{})
	run := cl.NewRun()
	res := Run[int32, int32](run, fr, Config[int32, int32]{
		Init: func(v graph.NodeID) int32 { return int32(v) },
		Compute: func(ctx *Context[int32], v graph.NodeID, val *int32, msgs []int32) {
			defer ctx.VoteToHalt()
			best := *val
			if ctx.Superstep == 0 {
				best = int32(v)
			}
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best < *val || ctx.Superstep == 0 {
				*val = best
				// Propagate along both directions to label weak components.
				for _, w := range g.Out(v) {
					ctx.Send(w, best)
				}
				for _, w := range g.In(v) {
					ctx.Send(w, best)
				}
			}
		},
	})
	for v := 0; v < 5; v++ {
		if res.Values[v] != 0 {
			t.Fatalf("node %d labeled %d, want 0", v, res.Values[v])
		}
	}
	for v := 5; v < 10; v++ {
		if res.Values[v] != 5 {
			t.Fatalf("node %d labeled %d, want 5", v, res.Values[v])
		}
	}
}
