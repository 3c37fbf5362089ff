package automaton

import (
	"encoding/binary"
	"fmt"

	"distreach/internal/codec"
)

// Binary wire codec for query automata, used by the TCP runtime to post
// Gq(R) to sites (internal/codec):
//
//	nstates uvarint | per state: label blob (uvarint length | bytes)
//	  | nout uvarint | per transition out of it, ascending: to uvarint
//
// The decoder accepts only what MarshalBinary writes — at least the Start
// and Final states, both unlabelled, each state's targets strictly
// ascending, nothing after them — so whatever decodes re-encodes to the
// same bytes.

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *Automaton) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(a.labels)))
	for u, l := range a.labels {
		b = codec.AppendBlob(b, l)
		b = binary.AppendUvarint(b, uint64(len(a.next[u])))
		for _, v := range a.next[u] {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *Automaton) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	ns := r.Count(2) // a label length and an out-degree at minimum
	if r.Err() == nil && ns < 2 {
		return fmt.Errorf("automaton: %d states, want at least Start and Final", ns)
	}
	labels := make([]string, ns)
	var edges [][2]int
	for u := 0; u < ns && r.Err() == nil; u++ {
		labels[u] = string(r.Blob())
		nout := r.Count(1)
		for i := 0; i < nout; i++ {
			v := int(r.Int31())
			if i > 0 && v <= edges[len(edges)-1][1] && r.Err() == nil {
				return fmt.Errorf("automaton: transitions out of order")
			}
			edges = append(edges, [2]int{u, v})
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("automaton: %w", err)
	}
	if labels[Start] != "" || labels[Final] != "" {
		return fmt.Errorf("automaton: labelled Start or Final state")
	}
	dec, err := New(labels[2:], edges)
	if err != nil {
		return err
	}
	*a = *dec
	return nil
}
