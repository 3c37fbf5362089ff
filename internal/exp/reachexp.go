package exp

import (
	"fmt"
	"time"

	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/workload"
)

func init() {
	register("T2", table2)
	register("F11a", fig11a)
	register("F11b", fig11b)
	register("F11c", fig11c)
	register("X1", visitCount)
	register("X2", trafficRatio)
}

// reachAlgos runs the three reachability algorithms over a query set and
// returns per-algorithm aggregate reports.
type agg struct {
	resp  time.Duration
	bytes int64
	rep   cluster.Report
	n     int
}

func (a *agg) add(r cluster.Report) {
	a.rep.Merge(r)
	a.resp += r.Response
	a.bytes += r.Bytes
	a.n++
}

func (a *agg) meanResp() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.resp / time.Duration(a.n)
}

func runReachSet(fr *fragment.Fragmentation, net cluster.NetModel, qs []workload.Query) (pe, naive, mp agg) {
	cl := cluster.New(fr.Card(), net)
	for _, q := range qs {
		pe.add(core.DisReach(cl, fr, q.S, q.T).Report)
		naive.add(baseline.DisReachN(cl, fr, q.S, q.T).Report)
		mp.add(baseline.DisReachM(cl, fr, q.S, q.T).Report)
	}
	return pe, naive, mp
}

// table2 regenerates Table 2: time and data shipment of disReach,
// disReachn, disReachm over the five real-life dataset analogues with
// card(F) = 4.
func table2(cfg Config) (Table, error) {
	t := Table{
		ID:     "T2",
		Title:  "Table 2: efficiency and data shipment, reachability queries (card(F)=4)",
		Header: []string{"dataset", "disReach ms", "disReachn ms", "disReachm ms", "disReach MB", "disReachn MB", "disReachm MB"},
		Notes:  "Paper shape: disReach fastest (20% of disReachn, 6% of disReachm on Amazon); disReachm ships least but runs slowest.",
	}
	nq := cfg.queries(10)
	for _, d := range workload.ReachDatasets {
		d.V = cfg.scale(d.V)
		d.E = cfg.scale(d.E)
		g := d.Generate()
		fr, err := fragment.Random(g, d.CardF, d.Seed)
		if err != nil {
			return t, err
		}
		qs := workload.ReachQueries(g, nq, 0.3, d.Seed+7)
		cfg.logf("T2 %s: %v", d.Name, fr)
		pe, naive, mp := runReachSet(fr, cfg.net(), qs)
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmtMS(pe.meanResp()), fmtMS(naive.meanResp()), fmtMS(mp.meanResp()),
			fmtMB(pe.bytes), fmtMB(naive.bytes), fmtMB(mp.bytes),
		})
	}
	return t, nil
}

// fig11a regenerates Fig. 11(a): response time vs card(F) on the
// LiveJournal analogue, card(F) = 2..20.
func fig11a(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11a",
		Title:  "Fig 11(a): varying fragment number, LiveJournal analogue",
		Header: []string{"card(F)", "disReach ms", "disReachn ms", "disReachm ms"},
		Notes:  "Paper shape: disReach and disReachn drop as card(F) grows; disReachm grows.",
	}
	d := workload.ReachDatasets[0] // LiveJournal
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	qs := workload.ReachQueries(g, cfg.queries(10), 0.3, 77)
	for k := 2; k <= 20; k += 2 {
		fr, err := fragment.Random(g, k, uint64(k))
		if err != nil {
			return t, err
		}
		cfg.logf("F11a card=%d: %v", k, fr)
		pe, naive, mp := runReachSet(fr, cfg.net(), qs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmtMS(pe.meanResp()), fmtMS(naive.meanResp()), fmtMS(mp.meanResp()),
		})
	}
	return t, nil
}

// fig11b regenerates Fig. 11(b): response time vs fragment size at
// card(F) = 8 on densification-law synthetic graphs.
func fig11b(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11b",
		Title:  "Fig 11(b): varying fragment size, synthetic graphs (card(F)=8)",
		Header: []string{"size(F)", "disReach ms", "disReachn ms", "disReachm ms"},
		Notes:  "Paper shape: all grow with size(F); disReach grows slowest.",
	}
	const k = 8
	for _, sizeF := range []int{3500, 7500, 11500, 15500, 19500, 23500, 27500, 31500} {
		total := cfg.scale(sizeF * k) // nodes+edges across the graph
		v := total / 4
		e := total - v
		g := workload.Synthetic(v, e, 0, uint64(sizeF))
		fr, err := fragment.Random(g, k, uint64(sizeF))
		if err != nil {
			return t, err
		}
		qs := workload.ReachQueries(g, cfg.queries(10), 0.3, uint64(sizeF)+1)
		cfg.logf("F11b size(F)=%d: %v", sizeF, fr)
		pe, naive, mp := runReachSet(fr, cfg.net(), qs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(sizeF), fmtMS(pe.meanResp()), fmtMS(naive.meanResp()), fmtMS(mp.meanResp()),
		})
	}
	return t, nil
}

// fig11c regenerates Fig. 11(c): disReach vs disReachm on the large
// synthetic graph (paper: 36M nodes / 360M edges; analogue at 1/300),
// card(F) = 10..20.
func fig11c(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11c",
		Title:  "Fig 11(c): varying fragment number, large synthetic graph",
		Header: []string{"card(F)", "disReach ms", "disReachm ms"},
		Notes:  "Paper shape: disReach drops with card(F); disReachm grows.",
	}
	v := cfg.scale(120000)
	e := cfg.scale(1200000)
	g := workload.Synthetic(v, e, 0, 33)
	qs := workload.ReachQueries(g, cfg.queries(3), 0.3, 34)
	for k := 10; k <= 20; k += 2 {
		fr, err := fragment.Random(g, k, uint64(k)*3)
		if err != nil {
			return t, err
		}
		cl := cluster.New(k, cfg.net())
		var pe, mp agg
		for _, q := range qs {
			pe.add(core.DisReach(cl, fr, q.S, q.T).Report)
			mp.add(baseline.DisReachM(cl, fr, q.S, q.T).Report)
		}
		cfg.logf("F11c card=%d: %v", k, fr)
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmtMS(pe.meanResp()), fmtMS(mp.meanResp())})
	}
	return t, nil
}

// visitCount regenerates the in-text claim of Exp-1: disReach visits each
// site exactly once per query while disReachm visits sites hundreds of
// times over a query set (the paper reports ~2500 total visits over the
// Amazon dataset with card(F) = 4, i.e. ~625 per site).
func visitCount(cfg Config) (Table, error) {
	t := Table{
		ID:     "X1",
		Title:  "Exp-1 text: site visits, Amazon analogue (card(F)=4)",
		Header: []string{"algorithm", "total visits", "visits/site/query", "max visits one site"},
		Notes:  "Paper: disReach visits each site once; disReachm visited the four sites ~2500 times in total.",
	}
	d := workload.ReachDatasets[4] // Amazon
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	fr, err := fragment.Random(g, d.CardF, d.Seed)
	if err != nil {
		return t, err
	}
	nq := cfg.queries(10)
	qs := workload.ReachQueries(g, nq, 0.3, 55)
	pe, _, mp := runReachSet(fr, cfg.net(), qs)
	perSite := func(a agg) string {
		return fmt.Sprintf("%.1f", float64(a.rep.TotalVisits)/float64(fr.Card())/float64(nq))
	}
	t.Rows = append(t.Rows,
		[]string{"disReach", fmt.Sprint(pe.rep.TotalVisits), perSite(pe), fmt.Sprint(pe.rep.MaxVisits)},
		[]string{"disReachm", fmt.Sprint(mp.rep.TotalVisits), perSite(mp), fmt.Sprint(mp.rep.MaxVisits)},
	)
	return t, nil
}

// trafficRatio regenerates the summary claim: the partial-evaluation
// algorithms ship no more than ~11% of the graph on average.
func trafficRatio(cfg Config) (Table, error) {
	t := Table{
		ID:     "X2",
		Title:  "Summary: disReach traffic as a fraction of graph size",
		Header: []string{"dataset", "graph bytes", "disReach bytes/query", "ratio"},
		Notes:  "Paper: data shipped is no more than 11% of the graphs on average.",
	}
	nq := cfg.queries(10)
	for _, d := range workload.ReachDatasets {
		d.V = cfg.scale(d.V)
		d.E = cfg.scale(d.E)
		g := d.Generate()
		fr, err := fragment.Random(g, d.CardF, d.Seed)
		if err != nil {
			return t, err
		}
		qs := workload.ReachQueries(g, nq, 0.3, d.Seed+9)
		cl := cluster.New(fr.Card(), cfg.net())
		var pe agg
		for _, q := range qs {
			pe.add(core.DisReach(cl, fr, q.S, q.T).Report)
		}
		gb := int64(graph.EncodedSize(g))
		per := pe.bytes / int64(nq)
		t.Rows = append(t.Rows, []string{
			d.Name, fmt.Sprint(gb), fmt.Sprint(per),
			fmt.Sprintf("%.1f%%", 100*float64(per)/float64(gb)),
		})
	}
	return t, nil
}
