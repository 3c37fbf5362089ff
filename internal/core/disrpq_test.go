package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/rx"
)

// naiveRPQ is LocalEvalRPQ's definition run literally: for every entry
// (in-node or stored s, state) in key order, a depth-first search of its
// own over the product (node, state) that matches labels by string, stops
// at boundary pairs (its terms) and notes (t, Final) (its constant).
func naiveRPQ(f *fragment.Fragment, s, t graph.NodeID, a *automaton.Automaton) []boolEq {
	type pnode struct {
		l int32
		u int
	}
	nq := a.NumStates()
	var heads []int32
	for l := int32(0); int(l) < f.NumTotal(); l++ {
		if !f.IsVirtual(l) && (f.IsInNode(l) || f.Global(l) == s) {
			heads = append(heads, l)
		}
	}
	slices.SortFunc(heads, func(x, y int32) int { return int(f.Global(x)) - int(f.Global(y)) })
	var out []boolEq
	for _, v := range heads {
		gv := f.Global(v)
		for u := 0; u < nq; u++ {
			switch {
			case u == automaton.Final:
				if gv == t {
					out = append(out, boolEq{rpqKey(gv, u, nq), true, nil})
				}
				continue
			case u == automaton.Start && gv != s:
				continue
			case u != automaton.Start && !a.MatchesLabel(u, f.Label(v)):
				continue
			}
			truth, terms, seen := false, map[graph.NodeID]bool{}, map[pnode]bool{}
			var dfs func(x pnode)
			dfs = func(x pnode) {
				for _, w := range f.Out(x.l) {
					for _, u2 := range a.Next(x.u) {
						y := pnode{w, u2}
						switch {
						case u2 == automaton.Final:
							truth = truth || f.Global(w) == t
						case !a.MatchesLabel(u2, f.Label(w)):
						case f.IsBoundary(w):
							terms[rpqKey(f.Global(w), u2, nq)] = true
						case !seen[y]:
							seen[y] = true
							dfs(y)
						}
					}
				}
			}
			dfs(pnode{v, u})
			if truth || len(terms) > 0 || u == automaton.Start {
				var vars []graph.NodeID
				for k := range terms {
					vars = append(vars, k)
				}
				slices.Sort(vars)
				out = append(out, boolEq{rpqKey(gv, u, nq), truth, vars})
			}
		}
	}
	return out
}

// rpqOracleGraph is a random graph of n nodes over the labels, with a
// self-loop on about one node in eight.
func rpqOracleGraph(rng *gen.RNG, n int, labels []string) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := rng.Intn(4 * n); i > 0; i-- {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	for i := 0; i < n/8; i++ {
		v := graph.NodeID(rng.Intn(n))
		b.AddEdge(v, v)
	}
	return b.MustBuild()
}

// TestLocalEvalRPQMatchesOracle: every qrr partial equals naiveRPQ's,
// equation for equation, on 60 random graphs (self-loops in each) under
// every shipped partitioner, with automata from the generator, from
// regexes and of more than 64 states, wildcard states among them. Every
// twelfth graph has 300 labels and a fragment holding more than 256 of
// them, so labels spill past the dictionary. Sources stored as interior
// nodes, targets held as virtual nodes and s = t all occur, and the test
// fails if one of these cases never does.
func TestLocalEvalRPQMatchesOracle(t *testing.T) {
	rng := gen.NewRNG(61)
	var wide []string
	for i := 0; i < 300; i++ {
		wide = append(wide, fmt.Sprintf("L%d", i))
	}
	var seen struct{ spilled, wildcard, over64, interiorS, virtualT, sameST int }
	for trial := 0; trial < 60; trial++ {
		labels, n, kmax := testLabels, 2+rng.Intn(60), 5
		if trial%12 == 0 {
			labels, n, kmax = wide, 600+rng.Intn(200), 2
		}
		g := rpqOracleGraph(rng, n, labels)
		alphabet := append(slices.Clone(labels[:min(len(labels), 6)]), rx.Wildcard)
		for _, name := range fragment.Names() {
			p, err := fragment.ByName(name, rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			fr, err := fragment.Partition(g, p, 1+rng.Intn(kmax))
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 4; q++ {
				var a *automaton.Automaton
				switch q {
				case 0:
					a = automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(12), alphabet)
				case 1:
					a = automaton.FromRegex(randomRegex(rng, 4))
				case 2:
					a = automaton.Random(rng, 65+rng.Intn(30), 100+rng.Intn(200), alphabet)
				default:
					a = automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(12), labels)
				}
				s, tt := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if q == 3 {
					tt = s
					seen.sameST++
				}
				if a.NumStates() > 64 {
					seen.over64++
				}
				for u := 2; u < a.NumStates(); u++ {
					if a.StateLabel(u) == rx.Wildcard {
						seen.wildcard++
						break
					}
				}
				for i, f := range fr.Fragments() {
					if ls, ok := f.Local(s); ok && !f.IsBoundary(ls) {
						seen.interiorS++
					}
					if lt, ok := f.Local(tt); ok && f.IsVirtual(lt) {
						seen.virtualT++
					}
					for l := int32(0); int(l) < f.NumTotal(); l++ {
						if _, ok := f.LabelCode(l); !ok {
							seen.spilled++
						}
					}
					got, want := boolEqs(LocalEvalRPQ(f, s, tt, a)), naiveRPQ(f, s, tt, a)
					if !slices.EqualFunc(got, want, func(x, y boolEq) bool {
						return x.node == y.node && x.truth == y.truth && slices.Equal(x.vars, y.vars)
					}) {
						t.Fatalf("trial %d, %s, query %d, fragment %d: qrr(%d, %d, %v)\n got %+v\nwant %+v", trial, name, q, i, s, tt, a, got, want)
					}
				}
			}
		}
	}
	if seen.spilled == 0 || seen.wildcard == 0 || seen.over64 == 0 || seen.interiorS == 0 || seen.virtualT == 0 || seen.sameST == 0 {
		t.Fatalf("a case never occurred: %+v", seen)
	}
	t.Logf("cases seen: %+v", seen)
}

// TestLocalEvalRPQConcurrent: LocalEvalRPQ draws its scratch from a pool,
// so calls from eight goroutines on one fragment, each with an automaton
// of its own (one past 64 states, so the scratch differs in shape), must
// each give exactly what a serial call gave.
func TestLocalEvalRPQConcurrent(t *testing.T) {
	rng := gen.NewRNG(17)
	g := gen.PowerLaw(gen.Config{Nodes: 2000, Edges: 8000, Labels: testLabels, Seed: 3})
	fr, err := fragment.Random(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := fr.Fragments()[1]
	type query struct {
		s, t graph.NodeID
		a    *automaton.Automaton
		want []byte
	}
	qs := make([]query, 8)
	for i := range qs {
		states := 2 + rng.Intn(6)
		if i == 0 {
			states = 70
		}
		q := query{s: graph.NodeID(rng.Intn(g.NumNodes())), t: graph.NodeID(rng.Intn(g.NumNodes())),
			a: automaton.Random(rng, states, 2*states+rng.Intn(8), append(slices.Clone(testLabels), rx.Wildcard))}
		if q.want, err = LocalEvalRPQ(f, q.s, q.t, q.a).MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(q query) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				got, err := LocalEvalRPQ(f, q.s, q.t, q.a).MarshalBinary()
				if err != nil || !slices.Equal(got, q.want) {
					t.Errorf("qrr(%d, %d) under %d states: concurrent part differs from the serial one (err %v)", q.s, q.t, q.a.NumStates(), err)
					return
				}
			}
		}(qs[i])
	}
	wg.Wait()
}

var rpqSink *Rows

// BenchmarkLocalEvalRPQ is one qrr(s, t, R) query's local evaluation on all
// four fragments at reach_cut's shape — a 10,876-node, 40,000-edge
// power-law graph labelled A/B/C, cut at random — with automata of 2 to 5
// states drawn as the benchmark's regex pool draws them. An op is one
// query.
func BenchmarkLocalEvalRPQ(b *testing.B) {
	labels := []string{"A", "B", "C"}
	g := gen.PowerLaw(gen.Config{Nodes: 10876, Edges: 40000, Labels: labels, Seed: 1})
	fr, err := fragment.Random(g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		s, t graph.NodeID
		a    *automaton.Automaton
	}
	rng := gen.NewRNG(2)
	qs := make([]query, 64)
	for i := range qs {
		s, t := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		qs[i] = query{s, t, automaton.Random(rng, 2+rng.Intn(4), 4+rng.Intn(8), labels)}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		q := qs[i%len(qs)]
		for _, f := range fr.Fragments() {
			rpqSink = LocalEvalRPQ(f, q.s, q.t, q.a)
		}
	}
}
