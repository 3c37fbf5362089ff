package core

import (
	"math"
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
			for _, rv := range []*Rows{LocalRows(f), DistQueryPart(f, s, tt, 1+rng.Intn(8))} {
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

// TestRPQPartialRoundTrip: qrr partials are product rows — Boolean, heads
// ascending, terms strictly ascending, no equation without a term or a
// constant but (s, Start) — and survive the codec equation for equation,
// decode into about four times their encoding at most, and answer and
// touch the same after the round trip; the walk answers as the equation
// system does.
func TestRPQPartialRoundTrip(t *testing.T) {
	rng := gen.NewRNG(53)
	for trial := 0; trial < 100; trial++ {
		_, fr, s, tt := randomCase(rng, testLabels)
		a := automaton.Random(rng, 2+rng.Intn(6), 4+rng.Intn(10), testLabels)
		nq := a.NumStates()
		partials := make([]*Rows, 0, fr.Card())
		decoded := make([]*Rows, 0, fr.Card())
		for _, f := range fr.Fragments() {
			rv := LocalEvalRPQ(f, s, tt, a)
			if err := CheckRPQPartial(rv); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for i := 0; i < rv.NumEqs(); i++ {
				key, cons, vars, _ := rv.Eq(i)
				if cons == NoConst && len(vars) == 0 && key != rpqKey(s, automaton.Start, nq) {
					t.Fatalf("trial %d: equation of %d says nothing", trial, key)
				}
				if !slices.IsSorted(vars) {
					t.Fatalf("trial %d: equation of %d has terms out of order: %v", trial, key, vars)
				}
			}
			data, err := rv.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back := new(RPQPartial)
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if back.Weighted() {
				t.Fatalf("trial %d: a qrr partial came back weighted", trial)
			}
			if held := 4*cap(back.nodes) + 4*cap(back.cons) + 4*cap(back.offs) + 4*cap(back.vars); held > 4*len(data)+16 {
				t.Fatalf("trial %d: decoded partial holds %d bytes for a %d-byte encoding (want <= 4x)", trial, held, len(data))
			}
			if !slices.EqualFunc(boolEqs(rv), boolEqs(back), func(a, b boolEq) bool {
				return a.node == b.node && a.truth == b.truth && slices.Equal(a.vars, b.vars)
			}) {
				t.Fatalf("trial %d: equations changed: %+v -> %+v", trial, boolEqs(rv), boolEqs(back))
			}
			partials = append(partials, rv)
			decoded = append(decoded, back)
		}
		ref := SolveRPQ(partials, s, a)
		if y := SolveRPQ(decoded, s, a); ref != y {
			t.Fatalf("trial %d: answers differ after round trip: %v vs %v", trial, ref, y)
		}
		x, tx := WalkRPQ(partials, s, nq, fr.Owner)
		y, ty := WalkRPQ(decoded, s, nq, fr.Owner)
		if x != y || !slices.Equal(tx, ty) {
			t.Fatalf("trial %d: walk differs after round trip: %v %v vs %v %v", trial, x, tx, y, ty)
		}
		if x != ref {
			t.Fatalf("trial %d: the walk answers %v, the equation system %v", trial, x, ref)
		}
	}
}

// TestRPQKeyBound: product keys are v·|Vq| + u in a 32-bit NodeID, so a
// graph and automaton with |V|·|Vq| >= 2^31 are refused, on the numbers
// alone.
func TestRPQKeyBound(t *testing.T) {
	for _, c := range []struct {
		n, nq int
		ok    bool
	}{
		{1 << 20, 2048, false}, // exactly 2^31
		{1<<20 - 1, 2048, true},
		{1 << 30, 2, false},
		{1<<30 - 1, 2, true},
		{math.MaxInt32, 1, true},
		{math.MaxInt32, 2, false},
		{3, 2, true},
	} {
		if err := CheckRPQKeys(c.n, c.nq); (err == nil) != c.ok {
			t.Errorf("CheckRPQKeys(%d, %d) = %v, want ok %v", c.n, c.nq, err, c.ok)
		}
	}
	if k := rpqKey(math.MaxInt32/3-1, 2, 3); k != math.MaxInt32/3*3-1 {
		t.Errorf("rpqKey near the bound = %d", k)
	}
	// LocalEvalRPQ itself refuses a key past the bound — here s's, on a
	// small graph — rather than wrap it.
	_, fr, _, tt := randomCase(gen.NewRNG(5), testLabels)
	a := automaton.Random(gen.NewRNG(5), 2, 4, testLabels)
	defer func() {
		if recover() == nil {
			t.Error("LocalEvalRPQ took a source whose product keys pass 2^31")
		}
	}()
	LocalEvalRPQ(fr.Fragments()[0], 1<<30, tt, a)
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
	// qrr partials are product rows: a zero gap between terms, a product
	// key past 2^31 and a partial in the retired RPQPartial layout (variable
	// space | equations | per equation: node | entries | per entry: state
	// and constant | keys) do not decode.
	for _, data := range [][]byte{
		{0, 1, 10, 1, 2, 5, 0},                            // a zero gap: term 5 twice
		{0, 1, 10, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x08},    // a term of 2^31
		{0, 1, 10, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x07, 1}, // terms adding up to 2^31
		{0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 0},        // a head of 2^31
		{12, 1, 10, 1, 5, 1, 17},                          // the retired layout
		{0, 1, 10, 1, 4, 0},                               // the retired layout, no variables
		{1, 1, 10, 1, 4, 0, 0, 0},                         // the retired layout, one variable
	} {
		var qv RPQPartial
		if err := qv.UnmarshalBinary(data); err == nil {
			t.Errorf("RPQPartial accepted %v", data)
		}
	}
	// A descending head decodes, as a reach query part may have one, but it
	// is no qrr partial.
	var desc RPQPartial
	if err := desc.UnmarshalBinary([]byte{0, 2, 10, 0, 0, 3, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := CheckRPQPartial(&desc); err == nil {
		t.Error("CheckRPQPartial accepted heads 5, 3")
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
	rows, err := LocalRows(f).MarshalBinary()
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
		src, tgt := SourceOnlyReach(f, s, t), TargetOnlyReach(f, t, nil)
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
