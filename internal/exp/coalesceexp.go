package exp

import (
	"fmt"

	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/workload"
)

func init() {
	register("E2", coalescePlacement)
}

// coalescePlacement measures the multiple-fragments-per-site adaptation:
// co-locating fragments internalizes cross edges, shrinking |Vf| and the
// traffic with it.
func coalescePlacement(cfg Config) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "Extension E2: co-locating fragments (multiple fragments per site)",
		Header: []string{"placement", "sites", "|Vf|", "bytes/query"},
		Notes:  "Edges between co-located fragments become internal; the guarantees are preserved with fewer visits.",
	}
	g := gen.Communities(gen.CommunitiesConfig{
		Communities: 8, Size: cfg.scale(800), InDegree: 6, OutDegree: 1, Seed: 77,
	})
	fr, err := fragment.Contiguous(g, 8) // one fragment per community
	if err != nil {
		return t, err
	}
	qs := workload.ReachQueries(g, cfg.queries(10), 0.3, 78)
	measure := func(name string, f *fragment.Fragmentation) error {
		cl := cluster.New(f.Card(), cfg.net())
		var rep cluster.Report
		for _, q := range qs {
			rep.Merge(core.DisReach(cl, f, q.S, q.T).Report)
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(f.Card()), fmt.Sprint(f.Vf()),
			fmt.Sprint(rep.Bytes / int64(len(qs))),
		})
		return nil
	}
	if err := measure("one fragment per site", fr); err != nil {
		return t, err
	}
	for _, sites := range []int{4, 2} {
		placement := make([]int, 8)
		for i := range placement {
			placement[i] = i * sites / 8
		}
		co, err := fragment.Coalesce(fr, placement, sites)
		if err != nil {
			return t, err
		}
		if err := measure(fmt.Sprintf("%d fragments per site", 8/sites), co); err != nil {
			return t, err
		}
	}
	return t, nil
}
