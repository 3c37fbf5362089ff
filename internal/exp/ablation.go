package exp

import (
	"fmt"
	"time"

	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/reachindex"
	"distreach/internal/workload"
)

func init() {
	register("A1", ablationIndex)
	register("A2", ablationBES)
}

// ablationIndex compares the two local reachability engines inside
// disReach's localEval: the direct frontier-cut BFS and the budgeted
// per-fragment reachability index production runs (the paper's remark that
// "any indexing techniques ... can be applied here, which will lead to
// lower computational cost"). Index build time is paid once per fragment
// and amortized over the query set.
func ablationIndex(cfg Config) (Table, error) {
	t := Table{
		ID:     "A1",
		Title:  "Ablation A1: local reachability engine inside localEval",
		Header: []string{"engine", "build ms", "mean query ms"},
		Notes: "BFS pays nothing upfront and one frontier-cut search per in-node SCC per query; " +
			"the fragment index pays the build once and answers each equation from two lookups.",
	}
	d := workload.ReachDatasets[4] // Amazon analogue
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	fr, err := fragment.Random(g, d.CardF, d.Seed)
	if err != nil {
		return t, err
	}
	qs := workload.ReachQueries(g, cfg.queries(5), 0.3, 71)
	cl := cluster.New(fr.Card(), cluster.NetModel{})
	run := func(name string, build time.Duration, opt *core.Options) {
		var total time.Duration
		for _, q := range qs {
			start := time.Now()
			core.DisReach(cl, fr, q.S, q.T, opt)
			total += time.Since(start)
		}
		t.Rows = append(t.Rows, []string{
			name, fmtMS(build), fmtMS(total / time.Duration(len(qs))),
		})
		cfg.logf("A1 %s done", name)
	}
	run("bfs", 0, &core.Options{NoFragmentIndex: true})
	start := time.Now()
	fr.EnableReachIndex(reachindex.DefaultBudget)
	fr.WaitReachIndexes()
	run("reachindex (default)", time.Since(start), nil)
	return t, nil
}

// ablationBES compares the dependency-graph solver (the paper's evalDG)
// with naive Kleene iteration on synthetic equation systems of growing
// |Vf|.
func ablationBES(cfg Config) (Table, error) {
	t := Table{
		ID:     "A2",
		Title:  "Ablation A2: Boolean equation system solving strategy",
		Header: []string{"|Vd|", "evalDG ms", "fixpoint ms"},
		Notes:  "evalDG is linear in |Gd|; Kleene iteration degrades on deep dependency chains.",
	}
	for _, n := range []int{1000, 4000, 16000} {
		n = cfg.scale(n)
		build := func() *bes.System[int] {
			s := bes.New[int]()
			// A pure dependency chain whose truth flows against the scan
			// order: Kleene iteration needs O(|Vd|) passes while the
			// dependency-graph solver does one reverse BFS.
			for v := 0; v < n-1; v++ {
				s.Add(v, false, v+1)
			}
			s.Add(n-1, true)
			return s
		}
		s := build()
		start := time.Now()
		a := s.Solve()
		dg := time.Since(start)
		start = time.Now()
		b := s.SolveFixpoint()
		fp := time.Since(start)
		if len(a) != len(b) {
			return t, fmt.Errorf("exp: solvers disagree: %d vs %d true vars", len(a), len(b))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmtMS(dg), fmtMS(fp)})
		cfg.logf("A2 n=%d done", n)
	}
	return t, nil
}
