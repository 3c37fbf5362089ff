package exp

import (
	"fmt"
	"time"

	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/reachindex"
	"distreach/internal/workload"
)

func init() {
	register("A1", ablationIndex)
	register("A2", ablationBES)
}

// ablationIndex compares the two ways a warm wire site answers the part
// of a reach query qr(s, t) that depends on it (SourceOnlyReach plus
// TargetOnlyReach, what a site ships beside the rows a coordinator
// already holds): with the in-nodes that reach t found by one search back
// from t, or by a probe per in-node of the fragment's interval labels (the
// paper's remark that "any indexing techniques ... can be applied here,
// which will lead to lower computational cost"). The labels' build time is
// paid once per fragment and amortized over the query set.
func ablationIndex(cfg Config) (Table, error) {
	t := Table{
		ID:     "A1",
		Title:  "Ablation A1: a warm site's per-query reach work, search vs interval labels",
		Header: []string{"engine", "build ms", "mean query ms"},
		Notes: "The search pays nothing upfront and visits t's ancestor cone in t's fragment per query; " +
			"the labels pay the build once and answer with one probe per in-node of that fragment.",
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
	run := func(name string, build time.Duration, opt *core.Options) {
		start := time.Now()
		for _, q := range qs {
			for _, f := range fr.Fragments() {
				core.SourceOnlyReach(f, q.S, q.T)
				core.TargetOnlyReach(f, q.T, opt)
			}
		}
		t.Rows = append(t.Rows, []string{
			name, fmtMS(build), fmtMS(time.Since(start) / time.Duration(len(qs))),
		})
		cfg.logf("A1 %s done", name)
	}
	run("search", 0, &core.Options{NoFragmentIndex: true})
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
