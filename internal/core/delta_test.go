package core

import (
	"bytes"
	"testing"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestRowsDeltaPatch is the property behind the wire's rows deltas: over
// 50 seeded graphs under every shipped partitioner, a random sequence of
// edge inserts and deletes, node inserts and deletes, cross edges that
// make a node an in-node and deletions that take the last cross edge into
// one, and a Compact, after every step and for every fragment,
// Patch(rows@g, Diff(rows@g, rows@g')) — the delta round-tripped through
// its wire encoding — encodes byte-identically to LocalRows at g'. A
// fragment whose generation did not move (Compact renumbers local slots,
// a step misses it) gives byte-identical rows, and an empty delta.
func TestRowsDeltaPatch(t *testing.T) {
	labels := []string{"A", "B"}
	for trial := 0; trial < 50; trial++ {
		for _, name := range fragment.Names() {
			seed := uint64(4300 + trial)
			rng := gen.NewRNG(seed)
			n := 20 + rng.Intn(40)
			g := gen.PowerLaw(gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: labels, Seed: seed})
			k := 2 + rng.Intn(3)
			p, err := fragment.ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			assign, err := p.Assign(g, k)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := fragment.Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]*Rows, k)
			gens := make([]uint64, k)
			for i, f := range fr.Fragments() {
				rows[i], gens[i] = LocalRows(f), f.Generation()
			}
			for step := 0; step < 12; step++ {
				what := deltaStep(t, fr, rng, labels, step)
				for i, f := range fr.Fragments() {
					cur := LocalRows(f)
					want, _ := cur.MarshalBinary()
					d := Diff(rows[i], cur)
					if f.Generation() == gens[i] {
						if was, _ := rows[i].MarshalBinary(); !bytes.Equal(was, want) {
							t.Fatalf("trial %d %s step %d (%s): fragment %d's rows moved at generation %d", trial, name, step, what, i, gens[i])
						}
						if d.Changed.NumEqs() != 0 || len(d.Dropped) != 0 {
							t.Fatalf("trial %d %s step %d (%s): fragment %d: a delta of equal rows changes %d, drops %d",
								trial, name, step, what, i, d.Changed.NumEqs(), len(d.Dropped))
						}
					}
					enc, err := d.Changed.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					changed := new(Rows)
					if err := changed.UnmarshalBinary(enc); err != nil {
						t.Fatal(err)
					}
					patched, err := Patch(rows[i], RowsDelta{Changed: changed, Dropped: d.Dropped})
					if err != nil {
						t.Fatalf("trial %d %s step %d (%s): fragment %d: %v", trial, name, step, what, i, err)
					}
					if got, _ := patched.MarshalBinary(); !bytes.Equal(got, want) {
						t.Fatalf("trial %d %s step %d (%s): fragment %d: patched rows (%d equations) differ from LocalRows (%d)",
							trial, name, step, what, i, patched.NumEqs(), cur.NumEqs())
					}
					rows[i], gens[i] = cur, f.Generation()
				}
			}
		}
	}
}

// deltaStep applies one random mutation to fr and names it.
func deltaStep(t *testing.T, fr *fragment.Fragmentation, rng *gen.RNG, labels []string, step int) string {
	t.Helper()
	g := fr.Graph()
	live := func() graph.NodeID {
		for {
			if v := graph.NodeID(rng.Intn(g.NumNodes())); !g.Deleted(v) {
				return v
			}
		}
	}
	apply := func(ops ...fragment.Op) {
		if _, err := fr.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	isIn := func(v graph.NodeID) bool {
		f := fr.Fragments()[fr.Owner(v)]
		l, ok := f.Local(v)
		return ok && f.IsInNode(l)
	}
	if step == 6 {
		fr.Compact()
		return "compact"
	}
	switch rng.Intn(6) {
	case 0:
		apply(fragment.Op{Kind: fragment.OpInsertEdge, U: live(), V: live()})
		return "edge insert"
	case 1:
		for try := 0; try < 20; try++ {
			if u := live(); len(g.Out(u)) > 0 {
				apply(fragment.Op{Kind: fragment.OpDeleteEdge, U: u, V: g.Out(u)[rng.Intn(len(g.Out(u)))]})
				return "edge delete"
			}
		}
		return "no edge to delete"
	case 2:
		// A cross edge into a node that is no in-node yet.
		for try := 0; try < 50; try++ {
			u, v := live(), live()
			if fr.Owner(u) != fr.Owner(v) && !isIn(v) {
				apply(fragment.Op{Kind: fragment.OpInsertEdge, U: u, V: v})
				return "cross edge making an in-node"
			}
		}
		return "no node to make an in-node"
	case 3:
		// Every cross edge into an in-node, in one batch.
		for try := 0; try < 50; try++ {
			v := live()
			if !isIn(v) {
				continue
			}
			var ops []fragment.Op
			for _, u := range g.In(v) {
				if fr.Owner(u) != fr.Owner(v) {
					ops = append(ops, fragment.Op{Kind: fragment.OpDeleteEdge, U: u, V: v})
				}
			}
			apply(ops...)
			if isIn(v) {
				t.Fatalf("node %d is still an in-node after its cross in-edges went", v)
			}
			return "cross edges unmaking an in-node"
		}
		return "no in-node to unmake"
	case 4:
		ops := []fragment.Op{{Kind: fragment.OpInsertNode, Label: labels[rng.Intn(len(labels))], Frag: -1}}
		res, err := fr.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		apply(fragment.Op{Kind: fragment.OpInsertEdge, U: live(), V: res.NewIDs[0]},
			fragment.Op{Kind: fragment.OpInsertEdge, U: res.NewIDs[0], V: live()})
		return "node insert"
	default:
		if g.NumLive() > 8 {
			apply(fragment.Op{Kind: fragment.OpDeleteNode, U: live()})
			return "node delete"
		}
		return "too few nodes to delete one"
	}
}

// TestPatchRefusesForeignDeltas: Patch refuses, with an error, every delta
// that cannot have been taken against its base — changed heads out of
// order, dropped heads out of order or not in the base, a head both changed
// and dropped, equations without weights or with a constant — and a base
// whose heads are out of order.
func TestPatchRefusesForeignDeltas(t *testing.T) {
	rowsOf := func(weighted bool, heads ...graph.NodeID) *Rows {
		rv := newRows(len(heads), weighted)
		for _, h := range heads {
			rv.add(h, NoConst, []graph.NodeID{h + 100}, []int32{1})
		}
		return rv
	}
	base := rowsOf(true, 2, 4, 6)
	withConst := newRows(1, true)
	withConst.add(5, 3, nil, nil)
	for _, c := range []struct {
		name string
		base *Rows
		d    RowsDelta
	}{
		{"changed heads descending", base, RowsDelta{Changed: rowsOf(true, 5, 3)}},
		{"changed head twice", base, RowsDelta{Changed: rowsOf(true, 4, 4)}},
		{"dropped heads descending", base, RowsDelta{Dropped: []graph.NodeID{6, 2}}},
		{"dropped head not in base", base, RowsDelta{Dropped: []graph.NodeID{3}}},
		{"dropped head past the base", base, RowsDelta{Dropped: []graph.NodeID{7}}},
		{"head changed and dropped", base, RowsDelta{Changed: rowsOf(true, 4), Dropped: []graph.NodeID{4}}},
		{"unweighted changes", base, RowsDelta{Changed: rowsOf(false, 3)}},
		{"a constant term", base, RowsDelta{Changed: withConst}},
		{"base out of order", rowsOf(true, 4, 2), RowsDelta{Changed: rowsOf(true, 5)}},
		{"unweighted base", rowsOf(false, 2, 4), RowsDelta{Changed: rowsOf(true, 5)}},
	} {
		if got, err := Patch(c.base, c.d); err == nil {
			t.Errorf("%s: patched into %d equations, want an error", c.name, got.NumEqs())
		}
	}
	// And the well-formed delta of the same shapes applies.
	got, err := Patch(base, RowsDelta{Changed: rowsOf(true, 1, 4, 7), Dropped: []graph.NodeID{2, 6}})
	if err != nil || got.NumEqs() != 3 {
		t.Fatalf("well-formed delta: %d equations, %v; want 3", got.NumEqs(), err)
	}
	for i, want := range []graph.NodeID{1, 4, 7} {
		if node, _, _, _ := got.Eq(i); node != want {
			t.Fatalf("equation %d is %d's, want %d's", i, node, want)
		}
	}
}

// BenchmarkRowsDelta times what one churn write costs the rows at
// reach_cut's shape (a 10,876-node power-law graph with 40,000 edges, cut
// at random into 4 fragments): the site's Diff of fragment 0's rows before
// and after a cross edge into it and the delta's encoding, the
// coordinator's decoding and Patch. It reports the delta's and the full
// rows' encoded sizes.
func BenchmarkRowsDelta(b *testing.B) {
	g := gen.PowerLaw(gen.Config{Nodes: 10876, Edges: 40000, Labels: gen.LabelAlphabet(4), Seed: 1})
	fr, err := fragment.Random(g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := fr.Fragments()[0]
	old := LocalRows(f)
	// The first edge from another fragment into fragment 0 that changes
	// its rows.
	var cur *Rows
	for u := graph.NodeID(0); cur == nil; u++ {
		v := (u*7919 + 1) % graph.NodeID(g.NumNodes())
		if fr.Owner(u) == 0 || fr.Owner(v) != 0 || g.HasEdge(u, v) {
			continue
		}
		if _, err := fr.Apply([]fragment.Op{{Kind: fragment.OpInsertEdge, U: u, V: v}}); err != nil {
			b.Fatal(err)
		}
		if rv := LocalRows(f); Diff(old, rv).Changed.NumEqs() > 0 {
			cur = rv
		}
	}
	full, _ := cur.MarshalBinary()
	var enc []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Diff(old, cur)
		enc, _ = d.Changed.MarshalBinary()
		changed := new(Rows)
		if err := changed.UnmarshalBinary(enc); err != nil {
			b.Fatal(err)
		}
		if _, err := Patch(old, RowsDelta{Changed: changed, Dropped: d.Dropped}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(enc)), "deltaB")
	b.ReportMetric(float64(len(full)), "rowsB")
}
