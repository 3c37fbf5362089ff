package exp

import (
	"fmt"

	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/workload"
)

func init() {
	register("F11d", fig11d)
}

// fig11d regenerates Fig. 11(d) (Exp-2): disDist vs disDistn on the
// WikiTalk analogue, varying card(F) = 2..20, bounded reachability with
// l = 10.
func fig11d(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11d",
		Title:  "Fig 11(d): bounded reachability (l=10), WikiTalk analogue",
		Header: []string{"card(F)", "disDist ms", "disDistn ms"},
		Notes:  "Paper shape: disDist outperforms disDistn by ~62.5% on average; both drop as card(F) grows.",
	}
	d := workload.ReachDatasets[1] // WikiTalk
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	qs := workload.ReachQueries(g, cfg.queries(10), 0.3, 21)
	const l = 10
	for k := 2; k <= 20; k += 2 {
		fr, err := fragment.Random(g, k, uint64(k)*5)
		if err != nil {
			return t, err
		}
		cl := cluster.New(k, cfg.net())
		var pe, naive agg
		for _, q := range qs {
			pe.add(core.DisDist(cl, fr, q.S, q.T, l).Report)
			naive.add(baseline.DisDistN(cl, fr, q.S, q.T, l).Report)
		}
		cfg.logf("F11d card=%d: %v", k, fr)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmtMS(pe.meanResp()), fmtMS(naive.meanResp()),
		})
	}
	return t, nil
}

// init registers the consistency check used by the harness to assert that
// algorithms agree while measuring (a safety net for the experiment code
// itself, not part of the paper's figures).
func init() { register("CHK", consistency) }

func consistency(cfg Config) (Table, error) {
	t := Table{
		ID:     "CHK",
		Title:  "Cross-algorithm agreement (sanity check)",
		Header: []string{"dataset", "queries", "agreements"},
	}
	for _, d := range workload.ReachDatasets[2:] {
		d.V = cfg.scale(d.V)
		d.E = cfg.scale(d.E)
		g := d.Generate()
		fr, err := fragment.Random(g, d.CardF, d.Seed)
		if err != nil {
			return t, err
		}
		cl := cluster.New(fr.Card(), cfg.net())
		qs := workload.ReachQueries(g, cfg.queries(10), 0.3, d.Seed+3)
		agree := 0
		for _, q := range qs {
			a := core.DisReach(cl, fr, q.S, q.T).Answer
			b := baseline.DisReachN(cl, fr, q.S, q.T).Answer
			c := baseline.DisReachM(cl, fr, q.S, q.T).Answer
			if a == b && b == c {
				agree++
			}
		}
		if agree != len(qs) {
			return t, fmt.Errorf("exp: algorithms disagree on %s (%d/%d)", d.Name, agree, len(qs))
		}
		t.Rows = append(t.Rows, []string{d.Name, fmt.Sprint(len(qs)), fmt.Sprint(agree)})
	}
	return t, nil
}
