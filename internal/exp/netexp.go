package exp

import (
	"fmt"
	"sync"
	"time"

	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/qcache"
	"distreach/internal/workload"
)

func init() {
	register("N1", tcpCrossCheck)
	register("N2", tcpConcurrency)
	register("N3", tcpBatching)
	register("N4", churnEviction)
	register("N5", skewRebalance)
}

// tcpCrossCheck validates the in-process simulation against the real TCP
// runtime: the same fragmentation is served by actual socket servers, the
// same queries are evaluated both ways, answers must agree on every query,
// and the measured on-the-wire reply bytes are compared with the
// simulation's accounted reply bytes. Every query runs twice over the wire:
// cold, through a freshly dialed coordinator that holds no site's boundary
// rows — the round the simulation accounts, every site shipping its
// O(|Vf|²) share — and again warm through the same coordinator, when the
// sites ship the query part only.
func tcpCrossCheck(cfg Config) (Table, error) {
	t := Table{
		ID:     "N1",
		Title:  "Validation N1: in-process simulation vs real TCP runtime",
		Header: []string{"dataset", "queries", "agreements", "sim reply B/query", "wire recv B/query cold", "wire recv B/query warm", "tcp round trip cold", "warm"},
		Notes: "Answers must agree on every query, cold and warm; cold wire bytes track the simulation's accounting (framing and equation headers add a small constant factor, " +
			"a round decided early subtracts), warm ones are what a coordinator holding every site's boundary rows receives.",
	}
	for _, d := range []workload.Dataset{workload.ReachDatasets[4], workload.ReachDatasets[3]} {
		d.V = cfg.scale(d.V)
		d.E = cfg.scale(d.E)
		g := d.Generate()
		fr, err := fragment.Random(g, d.CardF, d.Seed)
		if err != nil {
			return t, err
		}
		sites, addrs, err := netsite.ServeFragmentation(fr)
		if err != nil {
			return t, err
		}
		closeSites := func() {
			for _, s := range sites {
				s.Close()
			}
		}
		qs := workload.ReachQueries(g, cfg.queries(10), 0.3, d.Seed+31)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		agree := 0
		var simBytes int64
		var wireBytes [2]int64 // cold, warm
		var rt [2]time.Duration
		for _, q := range qs {
			sim := core.DisReach(cl, fr, q.S, q.T, nil)
			simBytes += sim.Report.BytesCoord
			co, err := netsite.Dial(addrs, 3*time.Second)
			if err != nil {
				closeSites()
				return t, err
			}
			same := true
			for round := range wireBytes {
				got, st, err := co.Reach(q.S, q.T)
				if err != nil {
					co.Close()
					closeSites()
					return t, err
				}
				same = same && got == sim.Answer
				wireBytes[round] += st.BytesReceived
				rt[round] += st.RoundTrip
			}
			co.Close()
			if same {
				agree++
			}
		}
		closeSites()
		if agree != len(qs) {
			return t, fmt.Errorf("exp: TCP and simulation disagree on %s (%d/%d)", d.Name, agree, len(qs))
		}
		n := int64(len(qs))
		t.Rows = append(t.Rows, []string{
			d.Name, fmt.Sprint(len(qs)), fmt.Sprint(agree),
			fmt.Sprint(simBytes / n), fmt.Sprint(wireBytes[0] / n), fmt.Sprint(wireBytes[1] / n),
			fmt.Sprint(rt[0] / time.Duration(n)), fmt.Sprint(rt[1] / time.Duration(n)),
		})
	}
	return t, nil
}

// tcpConcurrency measures multiplexed serving: the same TCP deployment is
// driven by 1, 2, 4 and 8 closed-loop clients sharing one coordinator's
// connections, and the table reports throughput and the speedup over the
// serialized (1-client) baseline. Before multiplexing, the coordinator
// pinned every query round behind one mutex, so this column was flat at
// 1.0x by construction.
func tcpConcurrency(cfg Config) (Table, error) {
	t := Table{
		ID:     "N2",
		Title:  "Serving N2: query throughput vs concurrent in-flight queries",
		Header: []string{"dataset", "clients", "queries", "throughput q/s", "speedup"},
		Notes: "Closed-loop clients share one coordinator and its site connections; frames are multiplexed by request ID. " +
			"Sites emulate a 10ms service time (a loaded or remote site): on loopback every site time-shares this " +
			"machine's cores, so without emulated latency a single query round already saturates local compute.",
	}
	d := workload.ReachDatasets[4]
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	fr, err := fragment.Random(g, d.CardF, d.Seed)
	if err != nil {
		return t, err
	}
	sites, addrs, err := netsite.ServeFragmentationOpts(fr, netsite.SiteOptions{Delay: 10 * time.Millisecond})
	if err != nil {
		return t, err
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := netsite.Dial(addrs, 3*time.Second)
	if err != nil {
		return t, err
	}
	defer co.Close()
	qs := workload.ReachQueries(g, cfg.queries(25)*8, 0.3, d.Seed+37)
	var base float64
	for _, clients := range []int{1, 2, 4, 8} {
		cfg.logf("N2: %s with %d clients", d.Name, clients)
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(qs); i += clients {
					if _, _, err := co.Reach(qs[i].S, qs[i].T); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return t, err
			}
		}
		qps := float64(len(qs)) / elapsed.Seconds()
		if clients == 1 {
			base = qps
		}
		t.Rows = append(t.Rows, []string{
			d.Name, fmt.Sprint(clients), fmt.Sprint(len(qs)),
			fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.1fx", qps/base),
		})
	}
	return t, nil
}

// tcpBatching measures wire-level batching: a fixed query budget is
// answered in batches of growing size over the same deployment, and the
// table shows frames per query shrinking as 2·sites/batch while
// throughput climbs — the per-batch form of the paper's one-visit bound,
// measured on real connections.
func tcpBatching(cfg Config) (Table, error) {
	t := Table{
		ID:     "N3",
		Title:  "Serving N3: frames and throughput vs wire batch size",
		Header: []string{"dataset", "batch", "queries", "frames/query", "wire B/query", "throughput q/s", "speedup"},
		Notes: "One serial client issues the same mixed qr/qbr workload in batches of growing size; every batch costs " +
			"one request and one response frame per site regardless of its size, so frames per query fall as 2·sites/batch. " +
			"Sites emulate a 5ms per-frame service time (a loaded or remote site), which batching amortizes across the batch.",
	}
	d := workload.ReachDatasets[4]
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	fr, err := fragment.Random(g, d.CardF, d.Seed)
	if err != nil {
		return t, err
	}
	sites, addrs, err := netsite.ServeFragmentationOpts(fr, netsite.SiteOptions{Delay: 5 * time.Millisecond})
	if err != nil {
		return t, err
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := netsite.Dial(addrs, 3*time.Second)
	if err != nil {
		return t, err
	}
	defer co.Close()
	n := g.NumNodes()
	budget := cfg.queries(16) * 8
	qs := make([]netsite.BatchQuery, budget)
	rqs := workload.ReachQueries(g, budget, 0.3, d.Seed+41)
	for i, q := range rqs {
		if i%2 == 0 {
			qs[i] = netsite.BatchQuery{Class: netsite.ClassReach, S: q.S, T: q.T}
		} else {
			qs[i] = netsite.BatchQuery{Class: netsite.ClassDist, S: q.S, T: q.T, L: 1 + i%8}
		}
		if qs[i].S == qs[i].T { // keep every query on the wire
			qs[i].T = (qs[i].T + 1) % graph.NodeID(n)
		}
	}
	var base float64
	for _, bsz := range []int{1, 2, 4, 8, 16} {
		cfg.logf("N3: %s with batch size %d", d.Name, bsz)
		var frames, bytes int64
		start := time.Now()
		for i := 0; i < len(qs); i += bsz {
			end := i + bsz
			if end > len(qs) {
				end = len(qs)
			}
			_, st, err := co.Batch(qs[i:end])
			if err != nil {
				return t, err
			}
			frames += st.FramesSent + st.FramesReceived
			bytes += st.BytesSent + st.BytesReceived
		}
		elapsed := time.Since(start)
		qps := float64(len(qs)) / elapsed.Seconds()
		if bsz == 1 {
			base = qps
		}
		t.Rows = append(t.Rows, []string{
			d.Name, fmt.Sprint(bsz), fmt.Sprint(len(qs)),
			fmt.Sprintf("%.2f", float64(frames)/float64(len(qs))),
			fmt.Sprint(bytes / int64(len(qs))),
			fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.1fx", qps/base),
		})
	}
	return t, nil
}

// churnEviction measures live updates against the answer cache: a
// repeat-heavy query stream (the shape the cache exists for) is mixed with
// edge updates at growing churn rates, once with the per-fragment
// invalidation (evict only the keys whose evaluation touched a dirtied
// fragment) and once with the wholesale flush that predated it. The table
// reports cache hit rate and throughput: per-fragment eviction holds both
// up under churn, while flushing pays a full re-warm per update.
func churnEviction(cfg Config) (Table, error) {
	t := Table{
		ID:     "N4",
		Title:  "Serving N4: cache hit rate and throughput vs churn — per-fragment eviction vs wholesale flush",
		Header: []string{"dataset", "invalidation", "updates/1k queries", "queries", "updates", "hit rate", "throughput q/s"},
		Notes: "One serial client replays a repeat-heavy reach workload (128-query pool) through the answer cache while an " +
			"updater mixes in block-local edge inserts/deletes; every update invalidates either per-fragment (dirty set from the " +
			"sites, evicting only answers whose evaluation touched a dirtied fragment) or by flushing the whole cache. The " +
			"graph is a community SBM partitioned one block per fragment, so a query's touched set is its own block and an " +
			"update's dirty set misses the other fragments' answers. Sites emulate a 2ms per-frame service time, so every " +
			"avoided re-computation is visible in throughput.",
	}
	const blocks = 8
	size := cfg.scale(400)
	name := fmt.Sprintf("SBM %dx%d", blocks, size)
	budget := cfg.queries(25) * 40
	const seed = 11
	for _, mode := range []string{"per-fragment", "flush"} {
		for _, churn := range []int{0, 10, 50} { // updates per 1000 queries
			cfg.logf("N4: %s at churn %d/1k", mode, churn)
			// Fresh deployment per cell: updates mutate the graph, and both
			// modes must start from the same state to compare fairly. The
			// graph has planted communities and the partition recovers them
			// (one block per fragment), the regime per-fragment eviction is
			// designed for: queries and updates are block-local, so an
			// update's dirty set misses most cached answers.
			g := gen.Communities(gen.CommunitiesConfig{
				Communities: blocks, Size: size, InDegree: 4, Seed: seed,
			})
			fr, err := fragment.Contiguous(g, blocks)
			if err != nil {
				return t, err
			}
			sites, addrs, err := netsite.ServeFragmentationOpts(fr, netsite.SiteOptions{Delay: 2 * time.Millisecond})
			if err != nil {
				return t, err
			}
			co, err := netsite.Dial(addrs, 3*time.Second)
			if err != nil {
				for _, s := range sites {
					s.Close()
				}
				return t, err
			}
			rng := gen.NewRNG(seed + 53)
			inBlock := func() (graph.NodeID, graph.NodeID) {
				base := rng.Intn(blocks) * size
				return graph.NodeID(base + rng.Intn(size)), graph.NodeID(base + rng.Intn(size))
			}
			pool := make([]core.Query, 128)
			for i := range pool {
				s, t := inBlock()
				pool[i] = core.Query{S: s, T: t}
			}
			cache := qcache.New[bool](4096)
			var hits, updates int
			every := 0
			if churn > 0 {
				every = 1000 / churn
			}
			start := time.Now()
			var failure error
			for q := 0; q < budget && failure == nil; q++ {
				if every > 0 && q%every == 0 && q > 0 {
					op := netsite.UpdateInsert
					if updates%2 == 1 {
						op = netsite.UpdateDelete
					}
					uu, uv := inBlock()
					res, _, err := co.Update(op, uu, uv)
					if err != nil {
						failure = err
						break
					}
					updates++
					if res.Changed {
						if mode == "flush" {
							cache.Flush()
						} else {
							cache.EvictFragments(res.Dirty)
						}
					}
				}
				qu := pool[rng.Intn(len(pool))]
				key := qcache.ReachKey(qu.S, qu.T)
				if _, ok := cache.Get(key); ok {
					hits++
					continue
				}
				epoch := cache.Generation()
				ans, st, err := co.Reach(qu.S, qu.T)
				if err != nil {
					failure = err
					break
				}
				cache.PutIfGeneration(key, ans, epoch, st.Touched)
			}
			elapsed := time.Since(start)
			co.Close()
			for _, s := range sites {
				s.Close()
			}
			if failure != nil {
				return t, failure
			}
			t.Rows = append(t.Rows, []string{
				name, mode, fmt.Sprint(churn), fmt.Sprint(budget), fmt.Sprint(updates),
				fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(budget)),
				fmt.Sprintf("%.0f", float64(budget)/elapsed.Seconds()),
			})
		}
	}
	return t, nil
}

// skewRebalance charts the tentpole of the online-rebalancing work: a
// community graph starts well partitioned, sustained skewed churn (hot-
// block edge inserts plus node inserts that attach to the hot block)
// degrades the fragmentation parameters the paper's guarantees depend on
// — |Fm| bloats, |Vf| and cross edges multiply — and per-query wire cost
// degrades with them. One live rebalance (epoch switch under traffic,
// balance-aware edge-cut partitioner) snaps both the parameters and the
// query cost back to within a fresh build's ballpark.
func skewRebalance(cfg Config) (Table, error) {
	t := Table{
		ID:     "N5",
		Title:  "Serving N5: query cost under skewed churn, before and after live rebalance",
		Header: []string{"phase", "|Fm|", "skew", "|Vf|", "cross edges", "wire B/query", "frames/query", "round trip/query"},
		Notes: "SBM community graph served over TCP (2ms emulated site service time), partitioned with the same edgecut strategy a real deployment would use. " +
			"The churn phase inserts hot-block edges and new nodes wired into the hot block; every query phase replays the same " +
			"mixed workload. The rebalance is the live epoch switch (queries keep flowing) with the edgecut (LDG) partitioner; " +
			"the last row rebuilds from scratch over the same mutated graph as the reference the 1.5x acceptance bound compares against.",
	}
	const blocks = 6
	size := cfg.scale(250)
	g := gen.Communities(gen.CommunitiesConfig{Communities: blocks, Size: size, InDegree: 4, Seed: 21})
	fr, err := fragment.EdgeCut(g, blocks, 21)
	if err != nil {
		return t, err
	}
	sites, addrs, err := netsite.ServeFragmentationOpts(fr, netsite.SiteOptions{Delay: 2 * time.Millisecond})
	if err != nil {
		return t, err
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := netsite.Dial(addrs, 3*time.Second)
	if err != nil {
		return t, err
	}
	defer co.Close()

	queries := cfg.queries(25) * 4
	rng := gen.NewRNG(22)
	qs := make([]core.Query, queries)
	n := g.NumNodes()
	for i := range qs {
		qs[i] = core.Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
		if qs[i].S == qs[i].T {
			qs[i].T = (qs[i].T + 1) % graph.NodeID(n)
		}
	}
	measure := func(phase string, bs fragment.BalanceStats) error {
		var bytes, frames int64
		var rt time.Duration
		for _, q := range qs {
			_, st, err := co.Reach(q.S, q.T)
			if err != nil {
				return err
			}
			bytes += st.BytesSent + st.BytesReceived
			frames += st.FramesSent + st.FramesReceived
			rt += st.RoundTrip
		}
		t.Rows = append(t.Rows, []string{
			phase, fmt.Sprint(bs.MaxSize), fmt.Sprintf("%.2f", bs.Skew()),
			fmt.Sprint(bs.Vf), fmt.Sprint(bs.CrossEdges),
			fmt.Sprint(bytes / int64(len(qs))),
			fmt.Sprintf("%.1f", float64(frames)/float64(len(qs))),
			fmt.Sprint((rt / time.Duration(len(qs))).Round(time.Microsecond)),
		})
		return nil
	}

	if err := measure("fresh", fr.BalanceStats()); err != nil {
		return t, err
	}

	// Skewed churn: every round adds hot-block edges and one new node
	// wired into the hot block (its balance-aware placement lands it on a
	// cold fragment, so each attachment is a cross edge).
	cfg.logf("N5: skewed churn")
	churnRounds := cfg.scale(150)
	var churned fragment.BalanceStats
	crng := gen.NewRNG(23)
	hot := func() graph.NodeID { return graph.NodeID(crng.Intn(size)) }
	for i := 0; i < churnRounds; i++ {
		res, _, err := co.Apply([]netsite.Op{
			{Kind: netsite.OpInsertEdge, U: hot(), V: hot()},
			{Kind: netsite.OpInsertEdge, U: hot(), V: hot()},
			{Kind: netsite.OpInsertNode, Label: "A", Frag: -1},
		})
		if err != nil {
			return t, err
		}
		if _, _, err := co.Apply([]netsite.Op{
			{Kind: netsite.OpInsertEdge, U: hot(), V: res.NewIDs[0]},
			{Kind: netsite.OpInsertEdge, U: res.NewIDs[0], V: hot()},
		}); err != nil {
			return t, err
		}
		churned = res.Stats
	}
	if err := measure("after skewed churn", churned); err != nil {
		return t, err
	}

	// Live rebalance: the epoch switch happens under whatever traffic is
	// flowing; here the measurement traffic follows it immediately.
	cfg.logf("N5: rebalancing")
	reb, _, err := co.Rebalance(1, "edgecut", 24)
	if err != nil {
		return t, err
	}
	if err := measure("after rebalance", reb.Stats); err != nil {
		return t, err
	}

	// Reference: a from-scratch edge-cut build over the same mutated graph.
	ref, err := fragment.EdgeCut(g, blocks, 25)
	if err != nil {
		return t, err
	}
	rs := ref.BalanceStats()
	t.Rows = append(t.Rows, []string{
		"fresh rebuild (reference)", fmt.Sprint(rs.MaxSize), fmt.Sprintf("%.2f", rs.Skew()),
		fmt.Sprint(rs.Vf), fmt.Sprint(rs.CrossEdges), "-", "-", "-",
	})
	return t, nil
}
