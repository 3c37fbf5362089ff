package automaton

import (
	"encoding/binary"
	"testing"

	"distreach/internal/gen"
	"distreach/internal/rx"
)

func TestAutomatonWireRoundTrip(t *testing.T) {
	rng := gen.NewRNG(71)
	labels := []string{"alpha", "beta", "g g", ""}
	for trial := 0; trial < 200; trial++ {
		a := Random(rng, 2+rng.Intn(10), rng.Intn(25), labels)
		data, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Automaton
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.NumStates() != a.NumStates() || back.NumTransitions() != a.NumTransitions() {
			t.Fatalf("trial %d: shape changed: %v -> %v", trial, a, &back)
		}
		for u := 0; u < a.NumStates(); u++ {
			if back.StateLabel(u) != a.StateLabel(u) {
				t.Fatalf("trial %d: label of state %d changed", trial, u)
			}
			nx, bx := a.Next(u), back.Next(u)
			if len(nx) != len(bx) {
				t.Fatalf("trial %d: fanout of %d changed", trial, u)
			}
			for i := range nx {
				if nx[i] != bx[i] {
					t.Fatalf("trial %d: transition changed", trial)
				}
			}
		}
		// The decoded automaton must accept the same strings.
		seq := make([]string, rng.Intn(5))
		for i := range seq {
			seq[i] = labels[rng.Intn(len(labels))]
		}
		if a.AcceptsLabels(seq) != back.AcceptsLabels(seq) {
			t.Fatalf("trial %d: acceptance changed on %v", trial, seq)
		}
	}
}

func TestAutomatonWireFromRegex(t *testing.T) {
	a := FromRegex(rx.MustParse("DB*|HR*"))
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Automaton
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seq  []string
		want bool
	}{
		{nil, true},
		{[]string{"DB", "DB"}, true},
		{[]string{"DB", "HR"}, false},
	} {
		if got := back.AcceptsLabels(c.seq); got != c.want {
			t.Errorf("decoded accepts(%v) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestAutomatonWireRejectsGarbage(t *testing.T) {
	good, err := FromRegex(rx.MustParse("a b")).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	garbage := [][]byte{
		nil,
		{},
		{1, 0, 0},                           // fewer than 2 states
		{0x82, 0x00, 0, 0, 0, 0},            // padded state count
		{0xff, 0xff, 0xff, 0xff, 0x0f},      // absurd state count
		{3, 0, 2, 2, 1, 0, 0, 1, 'x', 1, 1}, // Start's targets out of order
		{3, 0, 1, 2, 0, 0, 1, 'x', 1, 2, 9}, // trailing byte
		{2, 1, 'x', 0, 0, 0},                // labelled Start
		good[:len(good)-1],                  // truncated transitions
		good[:4],                            // truncated label
		fixedWidth(good),                    // the retired fixed-width layout
	}
	for i, data := range garbage {
		var a Automaton
		if err := a.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// fixedWidth re-encodes a wire automaton in the retired fixed-width layout
// (version 1, u32 counts and lengths, transitions as (from, to) u32 pairs),
// which the decoder must refuse.
func fixedWidth(data []byte) []byte {
	var a Automaton
	if err := a.UnmarshalBinary(data); err != nil {
		panic(err)
	}
	b := binary.LittleEndian.AppendUint32([]byte{1}, uint32(a.NumStates()))
	for u := 0; u < a.NumStates(); u++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.StateLabel(u))))
		b = append(b, a.StateLabel(u)...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(a.NumTransitions()))
	for u := 0; u < a.NumStates(); u++ {
		for _, v := range a.Next(u) {
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return b
}
