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
	register("F11e", fig11e)
	register("F11f", fig11f)
	register("F11g", fig11g)
	register("F11h", fig11h)
	register("F11i", fig11i)
	register("F11j", fig11j)
}

// defaultComplexity is the paper's Exp-3 default: (|Vq|,|Eq|,|Lq|)=(8,16,8).
var defaultComplexity = workload.Complexity{States: 8, Transitions: 16, Labels: 8}

func runRPQSet(fr *fragment.Fragmentation, net cluster.NetModel, qs []workload.RPQQuery, withNaive bool) (pe, dd, naive agg) {
	cl := cluster.New(fr.Card(), net)
	for _, q := range qs {
		pe.add(core.DisRPQ(cl, fr, q.S, q.T, q.A).Report)
		dd.add(baseline.DisRPQD(cl, fr, q.S, q.T, q.A).Report)
		if withNaive {
			naive.add(baseline.DisRPQN(cl, fr, q.S, q.T, q.A).Report)
		}
	}
	return
}

// fig11e regenerates Fig. 11(e): response time of disRPQ, disRPQd, disRPQn
// on the four labeled dataset analogues.
func fig11e(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11e",
		Title:  "Fig 11(e): regular reachability on labeled datasets",
		Header: []string{"dataset", "disRPQ ms", "disRPQd ms", "disRPQn ms"},
		Notes:  "Paper shape: disRPQ fastest (57-88% of disRPQd's time depending on dataset).",
	}
	nq := cfg.queries(10)
	for _, d := range workload.LabeledDatasets {
		d.V = cfg.scale(d.V)
		d.E = cfg.scale(d.E)
		g := d.Generate()
		fr, err := fragment.Random(g, d.CardF, d.Seed)
		if err != nil {
			return t, err
		}
		qs := workload.RPQQueries(g, nq, defaultComplexity, d.Seed+11)
		cfg.logf("F11e %s: %v", d.Name, fr)
		pe, dd, naive := runRPQSet(fr, cfg.net(), qs, true)
		t.Rows = append(t.Rows, []string{
			d.Name, fmtMS(pe.meanResp()), fmtMS(dd.meanResp()), fmtMS(naive.meanResp()),
		})
	}
	return t, nil
}

// fig11f regenerates Fig. 11(f): network traffic for the same runs.
func fig11f(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11f",
		Title:  "Fig 11(f): network traffic, regular reachability",
		Header: []string{"dataset", "disRPQ MB", "disRPQd MB", "disRPQn MB"},
		Notes:  "Paper shape: disRPQ ships at most 25% of disRPQd and ~3% of disRPQn.",
	}
	nq := cfg.queries(10)
	for _, d := range workload.LabeledDatasets {
		d.V = cfg.scale(d.V)
		d.E = cfg.scale(d.E)
		g := d.Generate()
		fr, err := fragment.Random(g, d.CardF, d.Seed)
		if err != nil {
			return t, err
		}
		qs := workload.RPQQueries(g, nq, defaultComplexity, d.Seed+11)
		pe, dd, naive := runRPQSet(fr, cfg.net(), qs, true)
		t.Rows = append(t.Rows, []string{
			d.Name, fmtMB(pe.bytes), fmtMB(dd.bytes), fmtMB(naive.bytes),
		})
	}
	return t, nil
}

// fig11g regenerates Fig. 11(g): response time vs query complexity
// (|Vq|, |Eq|) from (4,8) to (18,36) with |Lq| = 8, Youtube analogue.
func fig11g(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11g",
		Title:  "Fig 11(g): varying query complexity, Youtube analogue",
		Header: []string{"(|Vq|,|Eq|)", "disRPQ ms", "disRPQd ms", "disRPQn ms"},
		Notes:  "Paper shape: all grow with query size; disRPQ and disRPQd less sensitive than disRPQn.",
	}
	d := workload.LabeledDatasets[2] // Youtube
	d.V = cfg.scale(d.V)
	d.E = cfg.scale(d.E)
	g := d.Generate()
	fr, err := fragment.Random(g, d.CardF, d.Seed)
	if err != nil {
		return t, err
	}
	nq := cfg.queries(10)
	for vq := 4; vq <= 18; vq += 2 {
		c := workload.Complexity{States: vq, Transitions: 2 * vq, Labels: 8}
		qs := workload.RPQQueries(g, nq, c, uint64(vq)*13)
		cfg.logf("F11g (%d,%d)", vq, 2*vq)
		pe, dd, naive := runRPQSet(fr, cfg.net(), qs, true)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%d,%d)", vq, 2*vq),
			fmtMS(pe.meanResp()), fmtMS(dd.meanResp()), fmtMS(naive.meanResp()),
		})
	}
	return t, nil
}

// fig11h regenerates Fig. 11(h): response time vs fragment size, synthetic
// labeled graphs with card(F) = 10.
func fig11h(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11h",
		Title:  "Fig 11(h): varying fragment size, synthetic labeled graphs (card(F)=10)",
		Header: []string{"size(F)", "disRPQ ms", "disRPQd ms", "disRPQn ms"},
		Notes:  "Paper shape: all grow; disRPQ scales best (16 s at 1.5M nodes in the paper's setup).",
	}
	const k = 10
	nq := cfg.queries(10)
	for _, sizeF := range []int{3500, 7500, 11500, 15500, 19500, 23500, 27500, 31500} {
		total := cfg.scale(sizeF * k)
		v := total / 4
		e := total - v
		g := workload.Synthetic(v, e, 50, uint64(sizeF)+100)
		fr, err := fragment.Random(g, k, uint64(sizeF))
		if err != nil {
			return t, err
		}
		qs := workload.RPQQueries(g, nq, defaultComplexity, uint64(sizeF)+5)
		cfg.logf("F11h size(F)=%d: %v", sizeF, fr)
		pe, dd, naive := runRPQSet(fr, cfg.net(), qs, true)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(sizeF), fmtMS(pe.meanResp()), fmtMS(dd.meanResp()), fmtMS(naive.meanResp()),
		})
	}
	return t, nil
}

// fig11i regenerates Fig. 11(i): response time vs card(F) = 6..20 on a
// synthetic labeled graph (paper: 1.2M nodes / 4.8M edges; 1/10 analogue).
func fig11i(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11i",
		Title:  "Fig 11(i): varying fragment number, synthetic labeled graph",
		Header: []string{"card(F)", "disRPQ ms", "disRPQd ms", "disRPQn ms"},
		Notes:  "Paper shape: disRPQ's time at card(F)=6 is cut ~75% by card(F)=20.",
	}
	v := cfg.scale(120000)
	e := cfg.scale(480000)
	g := workload.Synthetic(v, e, 50, 41)
	qs := workload.RPQQueries(g, cfg.queries(5), defaultComplexity, 42)
	for k := 6; k <= 20; k += 2 {
		fr, err := fragment.Random(g, k, uint64(k)*7)
		if err != nil {
			return t, err
		}
		cfg.logf("F11i card=%d: %v", k, fr)
		pe, dd, naive := runRPQSet(fr, cfg.net(), qs, true)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmtMS(pe.meanResp()), fmtMS(dd.meanResp()), fmtMS(naive.meanResp()),
		})
	}
	return t, nil
}

// fig11j regenerates Fig. 11(j): disRPQ vs disRPQd on the large synthetic
// labeled graph (paper: 36M/360M/|L|=50; 1/300 analogue), card(F)=10..20.
func fig11j(cfg Config) (Table, error) {
	t := Table{
		ID:     "F11j",
		Title:  "Fig 11(j): varying fragment number, large synthetic labeled graph",
		Header: []string{"card(F)", "disRPQ ms", "disRPQd ms"},
		Notes:  "Paper shape: both drop with card(F); disRPQ consistently ahead.",
	}
	v := cfg.scale(120000)
	e := cfg.scale(1200000)
	g := workload.Synthetic(v, e, 50, 51)
	qs := workload.RPQQueries(g, cfg.queries(3), defaultComplexity, 52)
	for k := 10; k <= 20; k += 2 {
		fr, err := fragment.Random(g, k, uint64(k)*9)
		if err != nil {
			return t, err
		}
		cfg.logf("F11j card=%d: %v", k, fr)
		pe, dd, _ := runRPQSet(fr, cfg.net(), qs, false)
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmtMS(pe.meanResp()), fmtMS(dd.meanResp())})
	}
	return t, nil
}
