package core

import (
	"slices"
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

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
			var back ReachPartial
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if back.NumEqs() != rv.NumEqs() {
				t.Fatalf("equation count changed: %d -> %d", rv.NumEqs(), back.NumEqs())
			}
			// A decoded partial is what the wire coordinator keeps per site:
			// it must stay near its encoding, whatever its shape.
			if held := 4*cap(back.nodes) + cap(back.truth) + 4*cap(back.offs) + 4*cap(back.vars); 2*held > 3*len(data) {
				t.Fatalf("decoded partial holds %d bytes for a %d-byte encoding (want <= 1.5x)", held, len(data))
			}
			for i := 0; i < rv.NumEqs(); i++ {
				a, b := rv.at(i), back.at(i)
				if a.node != b.node || a.constTrue != b.constTrue || len(a.vars) != len(b.vars) {
					t.Fatalf("equation %d changed: %+v vs %+v", i, a, b)
				}
				for j := range a.vars {
					if a.vars[j] != b.vars[j] {
						t.Fatalf("var %d changed", j)
					}
				}
			}
		}
	}
}

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
			var back DistPartial
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			// The decoded partial must solve to the same distances.
			if a, b := SolveDist([]*DistPartial{rv}, s), SolveDist([]*DistPartial{&back}, s); a != b {
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
	garbage := [][]byte{
		nil,
		{},
		{99},                     // wrong version
		{1, 255, 255, 255, 255},  // absurd count
		{1, 2, 0, 0, 0},          // count 2 but no data
		{1, 1, 0, 0, 0, 7, 0, 0}, // truncated equation
	}
	for _, data := range garbage {
		var rv ReachPartial
		if err := rv.UnmarshalBinary(data); err == nil {
			t.Errorf("ReachPartial accepted %v", data)
		}
		var dv DistPartial
		if err := dv.UnmarshalBinary(data); err == nil {
			t.Errorf("DistPartial accepted %v", data)
		}
		var qv RPQPartial
		if err := qv.UnmarshalBinary(data); err == nil {
			t.Errorf("RPQPartial accepted %v", data)
		}
		var rv2 Rows
		if err := rv2.UnmarshalBinary(data); err == nil {
			t.Errorf("Rows accepted %v", data)
		}
	}
	// The compact layouts, each under its own version byte.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // an 11-byte varint
	for _, data := range [][]byte{
		{rowsVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},                // absurd count
		{rowsVersion, 2, 0, 0, 0},                                  // count 2, one equation
		{rowsVersion, 1, 0, 0, 0xFF, 0xFF, 0x03},                   // absurd disjunct count
		{rowsVersion, 1, 0, 0, 1, 5},                               // truncated disjunct
		{rowsVersion, 1, 3, 0, 0},                                  // node below zero
		{rowsVersion, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0},       // constant beyond int32
		{rowsVersion, 1, 0, 0, 1, 5, 0x80, 0x80, 0x80, 0x80, 0x10}, // weight beyond int32
		append([]byte{rowsVersion, 1}, over...),                    // overlong node
		{rowsVersion, 0, 0},                                        // trailing byte
	} {
		var rv Rows
		if err := rv.UnmarshalBinary(data); err == nil {
			t.Errorf("Rows accepted %v", data)
		}
	}
	for _, data := range [][]byte{
		{rpqVersion, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},             // absurd count
		{rpqVersion, 0, 1, 0, 0xFF, 0x7F},                         // absurd entry count
		{rpqVersion, 0, 1, 0, 1, 2, 0xFF, 0x7F},                   // absurd variable count
		{rpqVersion, 0, 1, 0, 1, 2, 2, 7},                         // truncated variables
		{rpqVersion, 0, 1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0}, // state beyond int32
		{rpqVersion, 0x80, 0x80, 0x80, 0x80, 0x10, 0},             // variable space beyond int32
		append([]byte{rpqVersion, 0, 1}, over...),                 // overlong node
		{1, 0, 0, 0, 0, 0, 0, 0, 0},                               // version 1, an empty partial in the old layout
	} {
		var qv RPQPartial
		if err := qv.UnmarshalBinary(data); err == nil {
			t.Errorf("RPQPartial accepted %v", data)
		}
	}
	_ = graph.None
}
