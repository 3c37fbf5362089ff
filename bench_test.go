// Benchmarks: one testing.B benchmark per table and figure of the paper's
// evaluation (Table 2, Fig. 11(a)-(l)) plus the ablations. Each
// benchmark measures single-query evaluation wall time on the experiment's
// workload; the full parameter sweeps with modeled network time are
// produced by cmd/bench (go run ./cmd/bench -all).
package distreach_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/baseline"
	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/mapreduce"
	"distreach/internal/reachindex"
	"distreach/internal/workload"
)

// benchScale shrinks the dataset analogues so a full -bench=. run stays in
// the minutes range; cmd/bench runs the full sizes.
const benchScale = 0.3

type fixture struct {
	fr *fragment.Fragmentation
	qs []workload.Query
	rq []workload.RPQQuery
}

var (
	fixMu    sync.Mutex
	fixtures = map[string]*fixture{}
)

// load builds (once) a partitioned dataset analogue plus query sets.
func load(tb testing.TB, name string, card int) *fixture {
	tb.Helper()
	key := fmt.Sprintf("%s/%d", name, card)
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	d, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown dataset %s", name)
	}
	d.V = int(float64(d.V) * benchScale)
	d.E = int(float64(d.E) * benchScale)
	if card > 0 {
		d.CardF = card
	}
	g := d.Generate()
	fr, err := fragment.Random(g, d.CardF, d.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	f := &fixture{
		fr: fr,
		qs: workload.ReachQueries(g, 16, 0.3, d.Seed+1),
		rq: workload.RPQQueries(g, 16, workload.Complexity{States: 8, Transitions: 16, Labels: 8}, d.Seed+2),
	}
	fixtures[key] = f
	return f
}

// BenchmarkTable2 measures the three reachability algorithms on the five
// Table 2 dataset analogues with card(F)=4.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"LiveJournal", "WikiTalk", "BerkStan", "NotreDame", "Amazon"} {
		f := load(b, name, 4)
		cl := cluster.New(f.fr.Card(), cluster.NetModel{})
		b.Run(name+"/disReach", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				core.DisReach(cl, f.fr, q.S, q.T)
			}
		})
		b.Run(name+"/disReachn", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				baseline.DisReachN(cl, f.fr, q.S, q.T)
			}
		})
		b.Run(name+"/disReachm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				baseline.DisReachM(cl, f.fr, q.S, q.T)
			}
		})
	}
}

// BenchmarkFig11a: reachability vs card(F) (sweep endpoints only; the
// harness runs the full sweep).
func BenchmarkFig11a(b *testing.B) {
	for _, card := range []int{2, 20} {
		f := load(b, "LiveJournal", card)
		cl := cluster.New(card, cluster.NetModel{})
		b.Run(fmt.Sprintf("card=%d/disReach", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				core.DisReach(cl, f.fr, q.S, q.T)
			}
		})
		b.Run(fmt.Sprintf("card=%d/disReachm", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				baseline.DisReachM(cl, f.fr, q.S, q.T)
			}
		})
	}
}

// synthetic builds the Fig. 11(b)/(h) style densification workloads.
func synthetic(tb testing.TB, v, e, labels, card int, seed uint64) *fixture {
	tb.Helper()
	key := fmt.Sprintf("syn/%d/%d/%d/%d", v, e, labels, card)
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	g := workload.Synthetic(v, e, labels, seed)
	fr, err := fragment.Random(g, card, seed)
	if err != nil {
		tb.Fatal(err)
	}
	f := &fixture{
		fr: fr,
		qs: workload.ReachQueries(g, 16, 0.3, seed+1),
		rq: workload.RPQQueries(g, 16, workload.Complexity{States: 8, Transitions: 16, Labels: 8}, seed+2),
	}
	fixtures[key] = f
	return f
}

// BenchmarkFig11b: reachability vs fragment size (endpoints of the sweep).
func BenchmarkFig11b(b *testing.B) {
	for _, sizeF := range []int{3500, 31500} {
		total := int(float64(sizeF*8) * benchScale)
		f := synthetic(b, total/4, total-total/4, 0, 8, uint64(sizeF))
		cl := cluster.New(8, cluster.NetModel{})
		b.Run(fmt.Sprintf("sizeF=%d/disReach", sizeF), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				core.DisReach(cl, f.fr, q.S, q.T)
			}
		})
	}
}

// BenchmarkFig11c: the large-graph endpoint, disReach vs disReachm.
func BenchmarkFig11c(b *testing.B) {
	f := synthetic(b, 36000, 360000, 0, 10, 33)
	cl := cluster.New(10, cluster.NetModel{})
	b.Run("disReach", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := f.qs[i%len(f.qs)]
			core.DisReach(cl, f.fr, q.S, q.T)
		}
	})
	b.Run("disReachm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := f.qs[i%len(f.qs)]
			baseline.DisReachM(cl, f.fr, q.S, q.T)
		}
	})
}

// BenchmarkFig11d: bounded reachability, disDist vs disDistn.
func BenchmarkFig11d(b *testing.B) {
	f := load(b, "WikiTalk", 10)
	cl := cluster.New(10, cluster.NetModel{})
	b.Run("disDist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := f.qs[i%len(f.qs)]
			core.DisDist(cl, f.fr, q.S, q.T, 10)
		}
	})
	b.Run("disDistn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := f.qs[i%len(f.qs)]
			baseline.DisDistN(cl, f.fr, q.S, q.T, 10)
		}
	})
}

// BenchmarkFig11e: regular reachability on the labeled datasets.
func BenchmarkFig11e(b *testing.B) {
	for _, name := range []string{"Citation", "MEME", "Youtube", "Internet"} {
		f := load(b, name, 0)
		cl := cluster.New(f.fr.Card(), cluster.NetModel{})
		b.Run(name+"/disRPQ", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				core.DisRPQ(cl, f.fr, q.S, q.T, q.A)
			}
		})
		b.Run(name+"/disRPQd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				baseline.DisRPQD(cl, f.fr, q.S, q.T, q.A)
			}
		})
		b.Run(name+"/disRPQn", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				baseline.DisRPQN(cl, f.fr, q.S, q.T, q.A)
			}
		})
	}
}

// BenchmarkFig11f reports bytes shipped per query as a custom metric — the
// traffic counterpart of Fig. 11(e).
func BenchmarkFig11f(b *testing.B) {
	for _, name := range []string{"Citation", "Youtube"} {
		f := load(b, name, 0)
		cl := cluster.New(f.fr.Card(), cluster.NetModel{})
		b.Run(name+"/disRPQ", func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				bytes += core.DisRPQ(cl, f.fr, q.S, q.T, q.A).Report.Bytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/query")
		})
		b.Run(name+"/disRPQd", func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				bytes += baseline.DisRPQD(cl, f.fr, q.S, q.T, q.A).Report.Bytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/query")
		})
	}
}

// BenchmarkFig11g: query-complexity endpoints on the Youtube analogue.
func BenchmarkFig11g(b *testing.B) {
	f := load(b, "Youtube", 0)
	cl := cluster.New(f.fr.Card(), cluster.NetModel{})
	for _, vq := range []int{4, 18} {
		qs := workload.RPQQueries(f.fr.Graph(), 16,
			workload.Complexity{States: vq, Transitions: 2 * vq, Labels: 8}, uint64(vq))
		b.Run(fmt.Sprintf("Vq=%d/disRPQ", vq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				core.DisRPQ(cl, f.fr, q.S, q.T, q.A)
			}
		})
	}
}

// BenchmarkFig11h: fragment-size endpoints for regular reachability.
func BenchmarkFig11h(b *testing.B) {
	for _, sizeF := range []int{3500, 31500} {
		total := int(float64(sizeF*10) * benchScale)
		f := synthetic(b, total/4, total-total/4, 50, 10, uint64(sizeF)+100)
		cl := cluster.New(10, cluster.NetModel{})
		b.Run(fmt.Sprintf("sizeF=%d/disRPQ", sizeF), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				core.DisRPQ(cl, f.fr, q.S, q.T, q.A)
			}
		})
	}
}

// BenchmarkFig11i: card(F) endpoints for regular reachability.
func BenchmarkFig11i(b *testing.B) {
	for _, card := range []int{6, 20} {
		f := synthetic(b, 36000, 144000, 50, card, uint64(card))
		cl := cluster.New(card, cluster.NetModel{})
		b.Run(fmt.Sprintf("card=%d/disRPQ", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.rq[i%len(f.rq)]
				core.DisRPQ(cl, f.fr, q.S, q.T, q.A)
			}
		})
	}
}

// BenchmarkFig11j: large labeled graph, disRPQ vs disRPQd.
func BenchmarkFig11j(b *testing.B) {
	f := synthetic(b, 36000, 360000, 50, 10, 51)
	cl := cluster.New(10, cluster.NetModel{})
	b.Run("disRPQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := f.rq[i%len(f.rq)]
			core.DisRPQ(cl, f.fr, q.S, q.T, q.A)
		}
	})
	b.Run("disRPQd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := f.rq[i%len(f.rq)]
			baseline.DisRPQD(cl, f.fr, q.S, q.T, q.A)
		}
	})
}

// BenchmarkFig11k: MRdRPQ across query complexities Q1..Q4.
func BenchmarkFig11k(b *testing.B) {
	g := workload.Synthetic(12000, 36000, 12, 200)
	for qi, c := range []workload.Complexity{
		{States: 4, Transitions: 6, Labels: 8},
		{States: 12, Transitions: 14, Labels: 8},
	} {
		qs := workload.RPQQueries(g, 16, c, uint64(qi)*17)
		b.Run(fmt.Sprintf("Vq=%d", c.States), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := mapreduce.MRdRPQ(g, q.S, q.T, q.A, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11l: MRdRPQ across mapper counts.
func BenchmarkFig11l(b *testing.B) {
	g := workload.Synthetic(12000, 36000, 12, 61)
	qs := workload.RPQQueries(g, 16, workload.Complexity{States: 6, Transitions: 8, Labels: 8}, 62)
	for _, mappers := range []int{5, 30} {
		b.Run(fmt.Sprintf("mappers=%d", mappers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := mapreduce.MRdRPQ(g, q.S, q.T, q.A, mappers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndex times what a warm site runs per reach query
// (ablation A1): SourceOnlyReach plus TargetOnlyReach on every fragment,
// with each in-node SCC's "reaches t" bit from a frontier-cut BFS against
// a probe of the fragment's interval labels, whose build time it reports.
func BenchmarkAblationIndex(b *testing.B) {
	f := load(b, "Internet", 4)
	run := func(name string, opt *core.Options, buildMS float64) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := f.qs[i%len(f.qs)]
				for _, frag := range f.fr.Fragments() {
					core.SourceOnlyReach(frag, q.S, q.T)
					core.TargetOnlyReach(frag, q.T, opt)
				}
			}
			b.ReportMetric(buildMS, "build-ms")
		})
	}
	run("bfs", &core.Options{NoFragmentIndex: true}, 0)
	start := time.Now()
	f.fr.EnableReachIndex(reachindex.DefaultBudget)
	f.fr.WaitReachIndexes()
	build := time.Since(start)
	defer f.fr.EnableReachIndex(0) // the fixture is shared
	run("reachindex", nil, build.Seconds()*1e3)
}

// BenchmarkAblationBES compares the equation-system solvers (ablation A2).
func BenchmarkAblationBES(b *testing.B) {
	build := func(n int) *bes.System[int] {
		s := bes.New[int]()
		// Pure chain: adversarial for round-based iteration (see exp A2).
		for v := 0; v < n-1; v++ {
			s.Add(v, false, v+1)
		}
		s.Add(n-1, true)
		return s
	}
	for _, n := range []int{1000, 16000} {
		s := build(n)
		b.Run(fmt.Sprintf("evalDG/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Solve()
			}
		})
		b.Run(fmt.Sprintf("fixpoint/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.SolveFixpoint()
			}
		})
	}
}

// BenchmarkAblationPartitioner shows how the partitioning strategy drives
// |Vf| and hence traffic.
func BenchmarkAblationPartitioner(b *testing.B) {
	d, _ := workload.ByName("Amazon")
	g := d.Generate()
	modK := make([]int, g.NumNodes())
	for v := range modK {
		modK[v] = v % 8
	}
	parts := []struct {
		name  string
		build func() (*fragment.Fragmentation, error)
	}{
		{"random", func() (*fragment.Fragmentation, error) { return fragment.Random(g, 8, 1) }},
		{"v%k", func() (*fragment.Fragmentation, error) { return fragment.Build(g, modK, 8) }},
		{"bfs", func() (*fragment.Fragmentation, error) { return fragment.Build(g, bfsAssign(g, 8), 8) }},
		{"contiguous", func() (*fragment.Fragmentation, error) { return fragment.Contiguous(g, 8) }},
		{"edgecut", func() (*fragment.Fragmentation, error) { return fragment.EdgeCut(g, 8, 1) }},
	}
	qs := workload.ReachQueries(g, 16, 0.3, 5)
	for _, p := range parts {
		fr, err := p.build()
		if err != nil {
			b.Fatal(err)
		}
		cl := cluster.New(8, cluster.NetModel{})
		b.Run(p.name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				bytes += core.DisReach(cl, fr, q.S, q.T).Report.Bytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/query")
			b.ReportMetric(float64(fr.Vf()), "Vf")
		})
	}
}

// BenchmarkAutomatonConstruction measures Gq(R) construction, the
// O(|R| log |R|) step paid once per query at the coordinator.
func BenchmarkAutomatonConstruction(b *testing.B) {
	rng := gen.NewRNG(9)
	labels := gen.LabelAlphabet(8)
	for _, states := range []int{8, 32} {
		b.Run(fmt.Sprintf("states=%d", states), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				automaton.Random(rng, states, 2*states, labels)
			}
		})
	}
}
