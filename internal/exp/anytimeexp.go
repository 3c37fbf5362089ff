package exp

import (
	"fmt"
	"sort"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/netsite"
)

func init() {
	register("N10", anytimeFirstAnswer)
}

// anytimeFirstAnswer guards early decision: when one site is an order of
// magnitude slower than the rest, a reach query whose certificate lives on
// the fast sites answers at fast-site latency — decided on the fast sites'
// replies, the straggler's late reply drained — instead of waiting the
// straggler out.
// The deployment is the two-component skew topology built to show it — a
// chain alternating between two fast fragments and an isolated chain owned
// entirely by the straggler — so every reachable pair in the fast chain can
// be proven without the straggler's reply. Each site holds its own replica,
// as separate cmd/site processes do: sites sharing one replica vouch for one
// another, and a warm round would not post to the straggler at all. The
// same workload runs twice, with anytime off (full strict rounds) and on,
// and the table compares first-answer percentiles.
// Both passes must agree with the constructed ground truth on every query;
// the anytime pass must cut first-answer p99 by at least 2x.
func anytimeFirstAnswer(cfg Config) (Table, error) {
	t := Table{
		ID:     "N10",
		Title:  "Serving N10: a straggler site is beaten by deciding on the other sites' replies — anytime vs full rounds",
		Header: []string{"mode", "true queries", "early terminated", "first-ans p50", "first-ans p99", "p99 speedup", "mismatches"},
		Notes: "Two-component topology: a chain alternating between two fast sites (4ms service time) and an isolated chain owned by " +
			"one straggler site (80ms, a 20x skew). Reachable pairs inside the fast chain have their whole certificate on the fast " +
			"sites; with anytime on, the fast sites' replies prove them and the round returns without the straggler, whose late reply " +
			"is drained, so first answer lands " +
			"at fast-site latency. False cross-component pairs need every site's reply in both modes and serve as the mismatch " +
			"cross-check (percentiles cover the true pairs only). Each site holds its own replica, so every round posts to every " +
			"site. The acceptance bound is a ≥2x first-answer p99 cut.",
	}
	const (
		fast = 4 * time.Millisecond
		slow = 80 * time.Millisecond // 20x skew: the straggler site
	)
	na := cfg.scale(40)
	nb := cfg.scale(12)
	b := graph.NewBuilder(na + nb)
	a0 := b.AddNodes(na, "A")
	b0 := b.AddNodes(nb, "B")
	for i := 0; i < na-1; i++ {
		b.AddEdge(a0+graph.NodeID(i), a0+graph.NodeID(i+1))
	}
	for i := 0; i < nb-1; i++ {
		b.AddEdge(b0+graph.NodeID(i), b0+graph.NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		return t, err
	}
	assign := make([]int, na+nb)
	for i := 0; i < na; i++ {
		assign[int(a0)+i] = i % 2
	}
	for i := 0; i < nb; i++ {
		assign[int(b0)+i] = 2
	}
	delays := []time.Duration{fast, fast, slow}
	var sites []*netsite.Site
	var addrs []string
	closeSites := func() {
		for _, s := range sites {
			s.Close()
		}
	}
	for i, delay := range delays {
		fr, err := fragment.Build(g.Clone(), assign, len(delays))
		if err != nil {
			closeSites()
			return t, err
		}
		s, err := netsite.NewSiteReplica("127.0.0.1:0", fragment.NewReplica(fr), i, netsite.SiteOptions{Delay: delay})
		if err != nil {
			closeSites()
			return t, err
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	defer closeSites()
	co, err := netsite.Dial(addrs, 3*time.Second)
	if err != nil {
		return t, err
	}
	defer co.Close()

	// Workload: reachable pairs inside the fast chain (measured), plus a few
	// cross-component pairs that are false by construction (mismatch check).
	type query struct {
		s, t graph.NodeID
		want bool
	}
	rng := gen.NewRNG(97)
	nTrue := cfg.queries(20)
	nFalse := nTrue / 4
	if nFalse < 2 {
		nFalse = 2
	}
	qs := make([]query, 0, nTrue+nFalse)
	for i := 0; i < nTrue; i++ {
		x := rng.Intn(na - 1)
		y := x + 1 + rng.Intn(na-1-x)
		qs = append(qs, query{a0 + graph.NodeID(x), a0 + graph.NodeID(y), true})
	}
	for i := 0; i < nFalse; i++ {
		qs = append(qs, query{a0 + graph.NodeID(rng.Intn(na)), b0 + graph.NodeID(rng.Intn(nb)), false})
	}

	pct := func(lats []time.Duration, p float64) time.Duration {
		return lats[int(p*float64(len(lats)-1))]
	}
	type pass struct {
		mode       string
		early      int
		mismatches int
		p50, p99   time.Duration
	}
	var passes []pass
	for _, mode := range []string{"full", "anytime"} {
		co.SetAnytime(mode == "anytime")
		cfg.logf("N10: %s pass over %d queries", mode, len(qs))
		var lats []time.Duration
		ps := pass{mode: mode}
		for _, q := range qs {
			got, st, err := co.Reach(q.s, q.t)
			if err != nil {
				return t, err
			}
			if got != q.want {
				ps.mismatches++
			}
			if st.EarlyTerminated {
				ps.early++
			}
			if q.want {
				lats = append(lats, st.FirstAnswer)
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ps.p50 = pct(lats, 0.50)
		ps.p99 = pct(lats, 0.99)
		passes = append(passes, ps)
	}

	full, any := passes[0], passes[1]
	speedup := func(p pass) string {
		if p.p99 == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(full.p99)/float64(p.p99))
	}
	for _, p := range []pass{full, any} {
		t.Rows = append(t.Rows, []string{
			p.mode, fmt.Sprint(nTrue), fmt.Sprint(p.early),
			fmtMS(p.p50) + "ms", fmtMS(p.p99) + "ms",
			speedup(p), fmt.Sprintf("%d/%d", p.mismatches, len(qs)),
		})
	}
	if full.mismatches+any.mismatches > 0 {
		return t, fmt.Errorf("exp: N10 answers disagree with ground truth (full %d, anytime %d of %d queries)",
			full.mismatches, any.mismatches, len(qs))
	}
	if any.early == 0 {
		return t, fmt.Errorf("exp: N10 anytime pass never early-terminated (%d true queries)", nTrue)
	}
	if full.p99 < 2*any.p99 {
		return t, fmt.Errorf("exp: N10 first-answer p99 win is %.1fx (full %v vs anytime %v), want >= 2x",
			float64(full.p99)/float64(any.p99), full.p99, any.p99)
	}
	return t, nil
}
