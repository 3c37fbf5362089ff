package automaton

import (
	"encoding/binary"
	"fmt"
)

// Binary wire codec for query automata, used by the TCP runtime to post
// Gq(R) to sites. Format (little-endian):
//
//	version u8 | nstates u32 | per state: labelLen u32, label bytes |
//	ntrans u32 | per transition: from u32, to u32
//
// The decoder accepts only what MarshalBinary writes — Start and Final
// unlabelled, transitions in strictly ascending (from, to) order, nothing
// after them — so whatever decodes re-encodes to the same bytes.
const wireVersion = 1

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *Automaton) MarshalBinary() ([]byte, error) {
	b := []byte{wireVersion}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.labels)))
	for _, l := range a.labels {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(l)))
		b = append(b, l...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(a.NumTransitions()))
	for u, vs := range a.next {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *Automaton) UnmarshalBinary(data []byte) error {
	off := 0
	u8 := func() (byte, error) {
		if off+1 > len(data) {
			return 0, fmt.Errorf("automaton: truncated payload")
		}
		v := data[off]
		off++
		return v, nil
	}
	u32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("automaton: truncated payload")
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	v, err := u8()
	if err != nil {
		return err
	}
	if v != wireVersion {
		return fmt.Errorf("automaton: unsupported version %d", v)
	}
	ns, err := u32()
	if err != nil {
		return err
	}
	if int(ns) < 2 || int(ns) > len(data) {
		return fmt.Errorf("automaton: implausible state count %d", ns)
	}
	labels := make([]string, ns)
	for i := range labels {
		n, err := u32()
		if err != nil {
			return err
		}
		if off+int(n) > len(data) {
			return fmt.Errorf("automaton: truncated label")
		}
		labels[i] = string(data[off : off+int(n)])
		off += int(n)
	}
	nt, err := u32()
	if err != nil {
		return err
	}
	if int(nt)*8 > len(data)-off {
		return fmt.Errorf("automaton: implausible transition count %d", nt)
	}
	if labels[Start] != "" || labels[Final] != "" {
		return fmt.Errorf("automaton: labelled Start or Final state")
	}
	edges := make([][2]int, 0, nt)
	for i := 0; i < int(nt); i++ {
		from, err := u32()
		if err != nil {
			return err
		}
		to, err := u32()
		if err != nil {
			return err
		}
		e := [2]int{int(from), int(to)}
		if i > 0 && (e[0] < edges[i-1][0] || e[0] == edges[i-1][0] && e[1] <= edges[i-1][1]) {
			return fmt.Errorf("automaton: transitions out of order")
		}
		edges = append(edges, e)
	}
	if off != len(data) {
		return fmt.Errorf("automaton: %d trailing bytes", len(data)-off)
	}
	dec, err := New(labels[2:], edges)
	if err != nil {
		return err
	}
	*a = *dec
	return nil
}
