package core

import (
	"slices"
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestReachPartialRoundTrip: reachability partials — unweighted Rows —
// survive the codec equation for equation, stay unweighted, and decode
// into about four times their encoding at most.
func TestReachPartialRoundTrip(t *testing.T) {
	rng := gen.NewRNG(51)
	for trial := 0; trial < 100; trial++ {
		_, fr, s, tt := randomCase(rng, nil)
		for _, f := range fr.Fragments() {
			rv := LocalEvalReach(f, s, tt, nil)
			data, err := rv.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Rows
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if back.Weighted() || back.ws != nil {
				t.Fatalf("a reachability partial came back weighted")
			}
			// A decoded partial is what the wire coordinator keeps per site:
			// it must stay near its encoding, whatever its shape.
			if held := 4*cap(back.nodes) + 4*cap(back.cons) + 4*cap(back.offs) + 4*cap(back.vars); held > 4*len(data)+16 {
				t.Fatalf("decoded partial holds %d bytes for a %d-byte encoding (want <= 4x)", held, len(data))
			}
			if !slices.EqualFunc(boolEqs(rv), boolEqs(&back), func(a, b boolEq) bool {
				return a.node == b.node && a.truth == b.truth && slices.Equal(a.vars, b.vars)
			}) {
				t.Fatalf("equations changed: %+v -> %+v", boolEqs(rv), boolEqs(&back))
			}
		}
	}
}

// TestDistPartialRoundTrip: distance partials — weighted Rows — survive
// the codec and solve to the same distances.
func TestDistPartialRoundTrip(t *testing.T) {
	rng := gen.NewRNG(52)
	for trial := 0; trial < 100; trial++ {
		_, fr, s, tt := randomCase(rng, nil)
		for _, f := range fr.Fragments() {
			rv := LocalEvalDist(f, s, tt, 8)
			data, err := rv.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Rows
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if !back.Weighted() {
				t.Fatalf("a distance partial came back unweighted")
			}
			if a, b := SolveDist([]*Rows{rv}, s), SolveDist([]*Rows{&back}, s); a != b {
				t.Fatalf("solutions differ after round trip: %d vs %d", a, b)
			}
		}
	}
}

// TestRowsRoundTrip: weighted rows and distance query parts survive the
// compact codec equation for equation, and what the coordinator holds
// decoded stays within a small multiple of the encoding.
func TestRowsRoundTrip(t *testing.T) {
	rng := gen.NewRNG(54)
	for trial := 0; trial < 100; trial++ {
		_, fr, s, tt := randomCase(rng, nil)
		for _, f := range fr.Fragments() {
			for _, rv := range []*Rows{LocalRows(f, nil), DistQueryPart(f, s, tt, 1+rng.Intn(8), nil)} {
				if rv == nil {
					continue
				}
				data, err := rv.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var back Rows
				if err := back.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
				if held := 4*cap(back.nodes) + 4*cap(back.cons) + 4*cap(back.offs) + 4*cap(back.vars) + 4*cap(back.ws); held > 8*len(data)+64 {
					t.Fatalf("decoded rows hold %d bytes for a %d-byte encoding (want <= 8x)", held, len(data))
				}
				if back.NumEqs() != rv.NumEqs() {
					t.Fatalf("equation count changed: %d -> %d", rv.NumEqs(), back.NumEqs())
				}
				for i := 0; i < rv.NumEqs(); i++ {
					n1, c1, v1, w1 := rv.Eq(i)
					n2, c2, v2, w2 := back.Eq(i)
					if n1 != n2 || c1 != c2 || !slices.Equal(v1, v2) || !slices.Equal(w1, w2) {
						t.Fatalf("equation %d changed: %d %d %v %v -> %d %d %v %v", i, n1, c1, v1, w1, n2, c2, v2, w2)
					}
				}
			}
		}
	}
}

// TestRPQPartialRoundTrip: regex partials survive the compact codec —
// every equation, entry-less ones included, since TouchedRPQ reads their
// presence — and decode into a footprint that follows the encoding.
func TestRPQPartialRoundTrip(t *testing.T) {
	rng := gen.NewRNG(53)
	for trial := 0; trial < 100; trial++ {
		_, fr, s, tt := randomCase(rng, testLabels)
		a := automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(10), testLabels)
		partials := make([]*RPQPartial, 0, fr.Card())
		decoded := make([]*RPQPartial, 0, fr.Card())
		for _, f := range fr.Fragments() {
			rv := LocalEvalRPQ(f, s, tt, a)
			data, err := rv.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back := new(RPQPartial)
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if len(back.eqs) != len(rv.eqs) || back.varSpace != rv.varSpace {
				t.Fatalf("trial %d: %d equations over %d variables -> %d over %d", trial, len(rv.eqs), rv.varSpace, len(back.eqs), back.varSpace)
			}
			held := 32 * cap(back.eqs)
			for i, eq := range back.eqs {
				held += 40 * len(eq.entries)
				if eq.node != rv.eqs[i].node || len(eq.entries) != len(rv.eqs[i].entries) {
					t.Fatalf("trial %d: equation %d changed", trial, i)
				}
				for j, e := range eq.entries {
					held += 8 * len(e.vars)
					if w := rv.eqs[i].entries[j]; e.state != w.state || e.constTrue != w.constTrue || !slices.Equal(e.vars, w.vars) {
						t.Fatalf("trial %d: entry %d of equation %d changed: %+v -> %+v", trial, j, i, w, e)
					}
				}
			}
			if held > 16*len(data)+64 {
				t.Fatalf("trial %d: decoded partial holds %d bytes for a %d-byte encoding (want <= 16x)", trial, held, len(data))
			}
			partials = append(partials, rv)
			decoded = append(decoded, back)
		}
		if x, y := SolveRPQ(partials, s, a), SolveRPQ(decoded, s, a); x != y {
			t.Fatalf("trial %d: answers differ after round trip: %v vs %v", trial, x, y)
		}
		if x, y := TouchedRPQ(partials, s, a.NumStates()), TouchedRPQ(decoded, s, a.NumStates()); !slices.Equal(x, y) {
			t.Fatalf("trial %d: touched differs after round trip: %v vs %v", trial, x, y)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {99}} { // empty, a lone byte
		var qv RPQPartial
		if err := qv.UnmarshalBinary(data); err == nil {
			t.Errorf("RPQPartial accepted %v", data)
		}
		var rv Rows
		if err := rv.UnmarshalBinary(data); err == nil {
			t.Errorf("Rows accepted %v", data)
		}
	}
	// w is the Rows flag that says the list is weighted.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // an 11-byte varint
	const w = rowsWeighted
	for _, data := range [][]byte{
		{w, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},                // absurd count
		{w, 2, 0, 0, 0},                                  // count 2, one equation
		{w, 1, 0, 0, 0xFF, 0xFF, 0x03},                   // absurd disjunct count
		{w, 1, 0, 0, 1, 5},                               // truncated disjunct: weight missing
		{0, 1, 0, 0, 1},                                  // truncated disjunct
		{w, 1, 3, 0, 0},                                  // node below zero
		{w, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0},       // constant beyond int32
		{w, 1, 0, 0, 1, 5, 0x80, 0x80, 0x80, 0x80, 0x10}, // weight beyond int32
		{w, 1, 0, 0, 1, 5, 0x80},                         // weighted list truncated mid-weight
		{0, 1, 0, 2, 0},                                  // Boolean constant 1: weights in an unweighted list
		{0, 1, 0, 0, 1, 0x85, 0x00},                      // padded varint: two bytes for 5
		{2, 0},                                           // unknown flag bit
		{0xFF, 0},                                        // every flag bit
		append([]byte{w, 1}, over...),                    // overlong node
		{w, 0, 0},                                        // trailing byte
		{2, w, 1, 0, 0, 1, 5, 3},                         // the retired layout: a leading version byte 2
		{2, 0, 0},                                        // version byte 2, no equations
	} {
		var rv Rows
		if err := rv.UnmarshalBinary(data); err == nil {
			t.Errorf("Rows accepted %v", data)
		}
	}
	for _, data := range [][]byte{
		{0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},             // absurd count
		{0, 1, 0, 0xFF, 0x7F},                         // absurd entry count
		{0, 1, 0, 1, 2, 0xFF, 0x7F},                   // absurd variable count
		{0, 1, 0, 1, 2, 2, 7},                         // truncated variables
		{0, 1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0}, // state beyond int32
		{0x80, 0x80, 0x80, 0x80, 0x10, 0},             // variable space beyond int32
		append([]byte{0, 1}, over...),                 // overlong node
		{1, 0, 0, 0, 0, 0, 0, 0, 0},                   // version 1, an empty partial in the old layout
		{2, 0, 0},                                     // version byte 2, an empty partial
	} {
		var qv RPQPartial
		if err := qv.UnmarshalBinary(data); err == nil {
			t.Errorf("RPQPartial accepted %v", data)
		}
	}
	// The shortest forms decode: an empty list of either kind, and a
	// Boolean equation that is true.
	for _, data := range [][]byte{{0, 0}, {w, 0}, {0, 1, 0, 1, 0}} {
		var rv Rows
		if err := rv.UnmarshalBinary(data); err != nil {
			t.Errorf("Rows rejected %v: %v", data, err)
		}
	}
}

// BenchmarkCodecRows decodes what the replies of a reach round carry, at
// reach_cut's shape (a 10,876-node power-law graph with 40,000 edges, cut
// at random into 4 fragments): "part" is a warm reply's reach query part
// (the source's equation and the in-nodes that reach the target), "rows"
// one fragment's weighted in-node rows, the section a cold or re-shipping
// reply carries.
func BenchmarkCodecRows(b *testing.B) {
	g := gen.PowerLaw(gen.Config{Nodes: 10876, Edges: 40000, Labels: gen.LabelAlphabet(4), Seed: 1})
	fr, err := fragment.Random(g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := fr.Fragments()[0]
	rows, err := LocalRows(f, nil).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	// The first query owned by f whose part holds both kinds of equation.
	part := new(Rows)
	for s := graph.NodeID(0); part.NumEqs() < 2; s++ {
		t := (s*7919 + 1) % graph.NodeID(g.NumNodes())
		if fr.Owner(s) != 0 || fr.Owner(t) != 0 {
			continue
		}
		src, tgt := SourceOnlyReach(f, s, t, nil), TargetOnlyReach(f, t, nil)
		if src.NumEqs() > 0 && tgt.NumEqs() > 0 {
			part.Append(src)
			part.Append(tgt)
		}
	}
	pb, err := part.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"part", pb}, {"rows", rows}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var rv Rows
				if err := rv.UnmarshalBinary(c.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
