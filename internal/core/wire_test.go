package core

import (
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
			partials = append(partials, rv)
			decoded = append(decoded, back)
		}
		if x, y := SolveRPQ(partials, s, a), SolveRPQ(decoded, s, a); x != y {
			t.Fatalf("trial %d: answers differ after round trip: %v vs %v", trial, x, y)
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
	}
	_ = graph.None
}
