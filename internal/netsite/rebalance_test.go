package netsite

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// rebalanceBy is Rebalance with a named partitioner, for tests that vary
// the strategy so that every switch really moves nodes.
func rebalanceBy(co *Coordinator, epoch uint64, partitioner string, seed uint64) (RebalanceResult, WireStats, error) {
	co.updMu.Lock()
	defer co.updMu.Unlock()
	return co.rebalanceLocked(context.Background(), epoch, partitioner, seed)
}

func deployFr(t *testing.T, fr *fragment.Fragmentation) (*Coordinator, func()) {
	t.Helper()
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		for _, s := range sites {
			s.Close()
		}
		t.Fatal(err)
	}
	return co, func() {
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// TestRebalanceBasics: a rebalance round advances the epoch exactly once
// however many sites share the replica, is idempotent on re-delivery,
// reports coherent balance stats, and answers afterwards still match the
// BFS oracle.
func TestRebalanceBasics(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 80, Edges: 320, Labels: []string{"A", "B"}, Seed: 71})
	fr, err := fragment.Random(g, 4, 71)
	if err != nil {
		t.Fatal(err)
	}
	co, cleanup := deployFr(t, fr)
	defer cleanup()

	res, st, err := co.Rebalance(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || res.Epoch != 1 {
		t.Fatalf("rebalance: applied=%v epoch=%d, want true/1", res.Applied, res.Epoch)
	}
	if st.Epoch != 1 {
		t.Fatalf("wire stats epoch = %d, want 1", st.Epoch)
	}
	if res.Stats.Fragments != 4 || res.Stats.TotalSize == 0 {
		t.Fatalf("implausible balance stats: %+v", res.Stats)
	}
	// Re-delivery of the same epoch is a no-op.
	res2, _, err := co.Rebalance(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied || res2.Epoch != 1 {
		t.Fatalf("duplicate rebalance: applied=%v epoch=%d, want false/1", res2.Applied, res2.Epoch)
	}
	// Queries answer from the new epoch and stay correct.
	for q := 0; q < 40; q++ {
		s, tt := graph.NodeID(q%80), graph.NodeID((q*13)%80)
		got, st, err := co.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Reachable(s, tt); got != want {
			t.Fatalf("qr(%d,%d) after rebalance = %v, oracle %v", s, tt, got, want)
		}
		if s != tt && st.Epoch != 1 {
			t.Fatalf("query answered from epoch %d, want 1", st.Epoch)
		}
	}
	// Updates still apply on the new fragmentation.
	ur, _, err := co.Update(UpdateInsert, 0, 79)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 {
		t.Fatalf("update applied at epoch %d, want 1", ur.Epoch)
	}
}

// TestRebalanceEpochRace floods the deployment with queries from many
// goroutines while the coordinator rebalances repeatedly. The graph never
// changes, so every answer must equal the precomputed oracle — a query
// combining partial answers across two fragmentations would get Boolean
// equations over mismatched boundary sets and wrong answers — and no
// query may fail: the epoch switch is zero-downtime by assertion.
func TestRebalanceEpochRace(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 150, Edges: 600, Labels: []string{"A", "B"}, Seed: 73})
	fr, err := fragment.Random(g, 3, 73)
	if err != nil {
		t.Fatal(err)
	}
	co, cleanup := deployFr(t, fr)
	defer cleanup()

	type qa struct {
		s, t graph.NodeID
		want bool
	}
	rng := gen.NewRNG(74)
	oracle := make([]qa, 256)
	for i := range oracle {
		s, tt := graph.NodeID(rng.Intn(150)), graph.NodeID(rng.Intn(150))
		oracle[i] = qa{s, tt, g.Reachable(s, tt)}
	}

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := gen.NewRNG(uint64(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := oracle[rng.Intn(len(oracle))]
				got, _, err := co.Reach(q.s, q.t)
				if err != nil {
					errc <- fmt.Errorf("qr(%d,%d) failed during rebalance: %w", q.s, q.t, err)
					return
				}
				if got != q.want {
					errc <- fmt.Errorf("qr(%d,%d) = %v during rebalance, oracle %v (mixed-epoch partials?)", q.s, q.t, got, q.want)
					return
				}
			}
		}(300 + w)
	}
	// Alternate partitioners so every switch really changes the node
	// assignment under the in-flight queries.
	parts := fragment.Names()
	for epoch := uint64(1); epoch <= 8; epoch++ {
		res, _, err := rebalanceBy(co, epoch, parts[int(epoch)%len(parts)], 100+epoch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != epoch {
			t.Fatalf("rebalance %d landed at epoch %d", epoch, res.Epoch)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// skewChurn drives a skewed mutation stream into the deployment: edges
// concentrated inside the first block plus new nodes that attach to
// block-0 nodes (placed least-loaded, i.e. elsewhere — every attachment
// becomes a cross edge). It returns the last update's balance stats.
func skewChurn(t *testing.T, co *Coordinator, blockSize, rounds int, seed uint64) fragment.BalanceStats {
	t.Helper()
	rng := gen.NewRNG(seed)
	var last fragment.BalanceStats
	for i := 0; i < rounds; i++ {
		inBlock := func() graph.NodeID { return graph.NodeID(rng.Intn(blockSize)) }
		ops := []Op{
			{Kind: OpInsertEdge, U: inBlock(), V: inBlock()},
			{Kind: OpInsertNode, Label: "A", Frag: -1},
		}
		res, _, err := co.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.NewIDs) != 1 {
			t.Fatalf("churn round %d: %d new IDs, want 1", i, len(res.NewIDs))
		}
		// Attach the new node to the hot block: a cross edge unless the
		// partitioner happened to place it on fragment 0.
		if _, _, err := co.Apply([]Op{
			{Kind: OpInsertEdge, U: inBlock(), V: res.NewIDs[0]},
			{Kind: OpInsertEdge, U: res.NewIDs[0], V: inBlock()},
		}); err != nil {
			t.Fatal(err)
		}
		r, _, err := co.Apply([]Op{{Kind: OpInsertEdge, U: inBlock(), V: inBlock()}})
		if err != nil {
			t.Fatal(err)
		}
		last = r.Stats
	}
	return last
}

// TestRebalanceRestoresBalance is the acceptance check for the ISSUE's
// tentpole: sustained skewed churn (hot-block edges plus node inserts)
// degrades |Fm| and |Vf|; a rebalance with the balance-aware edge-cut
// partitioner must bring both back to within 1.5x of a fresh build over
// the same mutated graph, with zero failed queries along the way.
func TestRebalanceRestoresBalance(t *testing.T) {
	const blocks, size = 6, 60
	g := gen.Communities(gen.CommunitiesConfig{Communities: blocks, Size: size, InDegree: 4, Seed: 77})
	fr, err := fragment.Contiguous(g, blocks)
	if err != nil {
		t.Fatal(err)
	}
	co, cleanup := deployFr(t, fr)
	defer cleanup()

	fresh0 := fr.BalanceStats()
	churned := skewChurn(t, co, size, 60, 78)
	if churned.MaxSize <= fresh0.MaxSize {
		t.Fatalf("skewed churn did not bloat the hot fragment: %d -> %d", fresh0.MaxSize, churned.MaxSize)
	}
	if churned.Skew() <= fresh0.Skew() {
		t.Fatalf("skewed churn did not raise skew: %.2f -> %.2f", fresh0.Skew(), churned.Skew())
	}

	res, _, err := co.Rebalance(1, 79)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("rebalance did not apply")
	}

	// Reference: a from-scratch edge-cut build over the same mutated graph
	// (different seed, so this is a genuinely independent fragmentation).
	p := fragment.EdgeCutPartitioner{Seed: 911}
	ref, err := fragment.Partition(g, p, blocks)
	if err != nil {
		t.Fatal(err)
	}
	refStats := ref.BalanceStats()
	if limit := refStats.MaxSize * 3 / 2; res.Stats.MaxSize > limit {
		t.Fatalf("post-rebalance |Fm| = %d exceeds 1.5x fresh build's %d", res.Stats.MaxSize, refStats.MaxSize)
	}
	if limit := refStats.Vf * 3 / 2; res.Stats.Vf > limit {
		t.Fatalf("post-rebalance |Vf| = %d exceeds 1.5x fresh build's %d", res.Stats.Vf, refStats.Vf)
	}
	if res.Stats.MaxSize >= churned.MaxSize {
		t.Fatalf("rebalance did not shrink |Fm|: %d -> %d", churned.MaxSize, res.Stats.MaxSize)
	}

	// The deployment still answers correctly after the whole episode.
	rng := gen.NewRNG(80)
	n := g.NumNodes()
	for q := 0; q < 30; q++ {
		s, tt := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if g.Deleted(s) || g.Deleted(tt) {
			continue
		}
		got, _, err := co.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Reachable(s, tt); got != want {
			t.Fatalf("qr(%d,%d) after rebalance = %v, oracle %v", s, tt, got, want)
		}
	}
}
