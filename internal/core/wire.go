package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"distreach/internal/codec"
	"distreach/internal/graph"
)

// Binary wire codecs for the two equation lists, Rows (every partial of qr
// and qbr) and RPQPartial, used by the TCP runtime (internal/netsite). The
// simulation does not run them: it charges the paper's byte accounting
// (ReachWireSize, distWireSize, RPQPartial.WireSize) instead. Every
// integer is a varint, and node IDs are zigzag deltas from the previous
// node of the list, so an equation costs a few bytes and a disjunct one to
// three on graphs of up to a few million nodes. Both read through
// internal/codec, which accepts only the shortest form of each varint, so
// whatever decodes re-encodes to the same bytes. Neither layout carries a
// version: the connection preamble versions the whole protocol.

// rowsWeighted is the Rows flag bit that says every variable carries a
// weight; no other bit is defined.
const rowsWeighted = 1

// MarshalBinary implements encoding.BinaryMarshaler for Rows:
//
//	flags u8 | equations uvarint | per equation:
//	  node (delta) | cons+1 uvarint (0: no constant) | vars uvarint
//	  | per variable: ID uvarint [| weight uvarint, when weighted]
func (rv *Rows) MarshalBinary() ([]byte, error) {
	n := rv.NumEqs()
	b := make([]byte, 0, 1+binary.MaxVarintLen32+4*n+4*len(rv.vars))
	b = append(b, 0)
	if rv.weighted {
		b[0] = rowsWeighted
	}
	b = binary.AppendUvarint(b, uint64(n))
	var prev int64
	for i := 0; i < n; i++ {
		node, cons, vars, ws := rv.Eq(i)
		b = codec.AppendNode(b, int32(node), &prev)
		b = binary.AppendUvarint(b, uint64(cons+1))
		b = binary.AppendUvarint(b, uint64(len(vars)))
		for j, v := range vars {
			b = binary.AppendUvarint(b, uint64(v))
			if rv.weighted {
				b = binary.AppendUvarint(b, uint64(ws[j]))
			}
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for Rows. Every
// equation takes at least 3 bytes and every disjunct 1 (2 when weighted),
// and the storage is sized from the payload, so what it decodes is at most
// about 4x its encoding however a payload is shaped. Unknown flags, a Boolean constant other than true, and trailing
// bytes are rejected.
func (rv *Rows) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	flags := r.U8()
	if flags&^rowsWeighted != 0 {
		return fmt.Errorf("core: unknown Rows flags %#x", flags)
	}
	weighted := flags == rowsWeighted
	term := 1
	if weighted {
		term = 2
	}
	n := r.Count(3)
	dec := newRows(n, weighted)
	// What the equations leave of the payload bounds the disjuncts.
	terms := max(0, r.Remaining()-3*n) / term
	dec.vars = make([]graph.NodeID, 0, terms)
	if weighted {
		dec.ws = make([]int32, 0, terms)
	}
	var prev int64
	for i := 0; i < n && r.Err() == nil; i++ {
		dec.nodes = append(dec.nodes, graph.NodeID(r.Node(&prev)))
		cons := r.Int31() - 1
		if !weighted && cons > 0 {
			return fmt.Errorf("core: Boolean equation with constant %d", cons)
		}
		dec.cons = append(dec.cons, cons)
		nv := r.Count(term)
		for j := 0; j < nv; j++ {
			dec.vars = append(dec.vars, graph.NodeID(r.Int31()))
			if weighted {
				dec.ws = append(dec.ws, r.Int31())
			}
		}
		dec.offs = append(dec.offs, uint32(len(dec.vars)))
	}
	if err := r.Done(); err != nil {
		return err
	}
	*rv = *dec
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for RPQPartial:
//
//	varSpace uvarint | equations uvarint | per equation:
//	  node (delta) | entries uvarint | per entry:
//	    state<<1|constTrue uvarint | vars uvarint | per variable: key uvarint
//
// An equation without entries is kept: TouchedRPQ reads its presence.
func (rv *RPQPartial) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(rv.varSpace))
	b = binary.AppendUvarint(b, uint64(len(rv.eqs)))
	var prev int64
	for _, eq := range rv.eqs {
		b = codec.AppendNode(b, int32(eq.node), &prev)
		b = binary.AppendUvarint(b, uint64(len(eq.entries)))
		for _, e := range eq.entries {
			sf := uint64(e.state) << 1
			if e.constTrue {
				sf |= 1
			}
			b = binary.AppendUvarint(b, sf)
			b = binary.AppendUvarint(b, uint64(len(e.vars)))
			for _, v := range e.vars {
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for RPQPartial.
// The entries and variables of all equations share one backing array each,
// so the decoded partial's footprint follows its encoding. Trailing bytes
// are rejected.
func (rv *RPQPartial) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	varSpace := r.Int31()
	n := r.Count(2)
	eqs := make([]rpqEqs, n)
	eoffs := make([]int, 1, n+1) // equation i's entries: entries[eoffs[i]:eoffs[i+1]]
	var entries []rpqEntry
	var voffs []int // entry j's vars: vars[voffs[j]:voffs[j+1]]
	var vars []rpqVar
	var prev int64
	for i := 0; i < n && r.Err() == nil; i++ {
		eqs[i].node = graph.NodeID(r.Node(&prev))
		ne := r.Count(2)
		for j := 0; j < ne && r.Err() == nil; j++ {
			sf := r.Uint(math.MaxInt32<<1 | 1)
			entries = append(entries, rpqEntry{state: int(sf >> 1), constTrue: sf&1 != 0})
			voffs = append(voffs, len(vars))
			nv := r.Count(1)
			for k := 0; k < nv; k++ {
				vars = append(vars, rpqVar(r.Uint(math.MaxInt64)))
			}
		}
		eoffs = append(eoffs, len(entries))
	}
	if err := r.Done(); err != nil {
		return err
	}
	voffs = append(voffs, len(vars))
	for j := range entries {
		if lo, hi := voffs[j], voffs[j+1]; hi > lo {
			entries[j].vars = vars[lo:hi:hi]
		}
	}
	for i := range eqs {
		if lo, hi := eoffs[i], eoffs[i+1]; hi > lo {
			eqs[i].entries = entries[lo:hi:hi]
		}
	}
	rv.eqs = eqs
	rv.varSpace = int(varSpace)
	return nil
}
