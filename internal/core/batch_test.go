package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestQuickDisReach drives disReach with testing/quick: arbitrary seeds
// define the instance, and the distributed answer must equal centralized
// BFS for every endpoint pair probed.
func TestQuickDisReach(t *testing.T) {
	check := func(seed uint64, sRaw, tRaw uint8, k uint8) bool {
		rng := gen.NewRNG(seed)
		n := 2 + rng.Intn(30)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: rng.Intn(3 * n), Seed: seed})
		fr, err := fragment.Random(g, 1+int(k%6), seed)
		if err != nil {
			return false
		}
		s := graph.NodeID(int(sRaw) % n)
		tt := graph.NodeID(int(tRaw) % n)
		cl := cluster.New(fr.Card(), cluster.NetModel{})
		return DisReach(cl, fr, s, tt).Answer == g.Reachable(s, tt)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedTargetSplitMatchesSingle checks the per-target split the wire
// batch reply ships deduplicated: for random fragmented graphs, composing
// each fragment's source-independent rvset (LocalEvalReach with s = None)
// with the per-source equation (SourceOnlyReach) must solve to the same
// answer as the per-query partials — and both must match the centralized
// oracle.
func TestSharedTargetSplitMatchesSingle(t *testing.T) {
	rng := gen.NewRNG(63)
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(40)
		g := gen.Uniform(gen.Config{Nodes: n, Edges: rng.Intn(4 * n), Seed: uint64(trial)})
		fr, err := fragment.Random(g, 1+rng.Intn(4), uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		frags := fr.Fragments()
		tt := graph.NodeID(rng.Intn(n))
		bases := make([]*Rows, len(frags))
		for fi, f := range frags {
			bases[fi] = LocalEvalReach(f, graph.None, tt, nil)
		}
		m := 1 + rng.Intn(6)
		for qi := 0; qi < m; qi++ {
			s := graph.NodeID(rng.Intn(n))
			splitParts := make([]*Rows, 0, 2*len(frags))
			singleParts := make([]*Rows, len(frags))
			for fi, f := range frags {
				splitParts = append(splitParts, bases[fi], SourceOnlyReach(f, s, tt))
				singleParts[fi] = LocalEvalReach(f, s, tt, nil)
			}
			got := s == tt || SolveReach(splitParts, s)
			single := s == tt || SolveReach(singleParts, s)
			want := g.Reachable(s, tt)
			if got != want || single != want {
				t.Fatalf("trial %d: qr(%d,%d) split=%v single=%v oracle=%v",
					trial, s, tt, got, single, want)
			}
		}
	}
}

// TestNonOwnerQueryPartsEmpty pins the invariant a coordinator's routing
// rests on: for qr(s, t) and qbr(s, t, l), a fragment that stores neither s
// nor t as a real node — whether or not it holds either as a virtual node —
// returns no equation, so a site owning neither has nothing to add to the
// rows the coordinator holds for it. Random small graphs under v%k and
// every shipped partitioner, every (s, t), l in 1..4, with the fragment
// index on and off.
func TestNonOwnerQueryPartsEmpty(t *testing.T) {
	rng := gen.NewRNG(3601)
	kinds := append([]string{"v%k"}, fragment.Names()...)
	virtual := 0 // checks of a fragment holding s or t as a virtual node
	for trial := 0; trial < 52; trial++ {
		n := 8 + rng.Intn(13)
		cfg := gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: []string{"A"}, Seed: uint64(3600 + trial)}
		g := gen.Uniform(cfg)
		if trial%2 == 1 {
			g = gen.PowerLaw(cfg)
		}
		k := 2 + rng.Intn(3)
		kind := kinds[trial%len(kinds)]
		var assign []int
		if kind == "v%k" {
			assign = make([]int, n)
			for v := range assign {
				assign[v] = v % k
			}
		} else {
			p, err := fragment.ByName(kind, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if assign, err = p.Assign(g, k); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := fragment.Build(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		fr.EnableReachIndex(1 << 20)
		fr.WaitReachIndexes()
		for _, opt := range []*Options{{}, {NoFragmentIndex: true}} {
			for s := graph.NodeID(0); int(s) < n; s++ {
				for tt := graph.NodeID(0); int(tt) < n; tt++ {
					for _, f := range fr.Fragments() {
						if f.ID == fr.Owner(s) || f.ID == fr.Owner(tt) {
							continue
						}
						if _, ok := f.Local(s); ok {
							virtual++
						} else if _, ok := f.Local(tt); ok {
							virtual++
						}
						where := fmt.Sprintf("trial %d (%s, k=%d, index off %v): fragment %d, s=%d (owner %d), t=%d (owner %d)",
							trial, kind, k, opt.NoFragmentIndex, f.ID, s, fr.Owner(s), tt, fr.Owner(tt))
						if p := SourceOnlyReach(f, s, tt); p.NumEqs() != 0 {
							t.Fatalf("%s: SourceOnlyReach returned %d equations", where, p.NumEqs())
						}
						if p := TargetOnlyReach(f, tt, opt); p.NumEqs() != 0 {
							t.Fatalf("%s: TargetOnlyReach returned %d equations", where, p.NumEqs())
						}
						for l := 1; l <= 4; l++ {
							if p := DistQueryPart(f, s, tt, l); p.NumEqs() != 0 {
								t.Fatalf("%s: DistQueryPart(l=%d) returned %d equations", where, l, p.NumEqs())
							}
						}
					}
				}
			}
		}
	}
	if virtual == 0 {
		t.Fatal("no fragment held s or t as a virtual node: the case that matters went unchecked")
	}
}
