package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"distreach/internal/codec"
	"distreach/internal/graph"
)

// The binary wire codec of Rows, the one equation list of every partial
// (qr, qbr and qrr's product rows), used by the TCP runtime
// (internal/netsite). The simulation does not run it: it charges the
// paper's byte accounting (ReachWireSize, distWireSize, RPQWireSize)
// instead. Every integer is a varint. A head is a zigzag delta from the
// previous head, and an equation's terms, strictly ascending, are gaps:
// the first from 0, each later one from the term before it. A gap is
// never larger than the node it stands for, so an equation costs a few
// bytes and a disjunct one or two on graphs of up to a few million nodes
// (qrr's product keys, v·|Vq| + u, spread further apart). It reads
// through internal/codec, which accepts only the shortest form of each
// varint, and refuses a zero gap after the first, so whatever decodes
// re-encodes to the same bytes. The layout carries no version: the
// connection preamble versions the whole protocol.

// rowsWeighted is the Rows flag bit that says every variable carries a
// weight; no other bit is defined.
const rowsWeighted = 1

// MarshalBinary implements encoding.BinaryMarshaler for Rows:
//
//	flags u8 | equations uvarint | per equation:
//	  node (delta) | cons+1 uvarint (0: no constant) | vars uvarint
//	  | per variable: ID gap uvarint [| weight uvarint, when weighted]
//
// Terms out of order, which no list built through add holds, are an error.
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
			gap := v
			if j > 0 {
				if gap -= vars[j-1]; gap <= 0 {
					return nil, fmt.Errorf("core: equation of %d has term %d after %d", node, v, vars[j-1])
				}
			}
			b = binary.AppendUvarint(b, uint64(gap))
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
// about 4x its encoding however a payload is shaped. Unknown flags, a
// Boolean constant other than true, a zero gap between terms, a term past
// 2^31 and trailing bytes are rejected.
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
		var v int64
		for j := 0; j < nv; j++ {
			gap := r.Int31()
			if j > 0 && gap == 0 {
				return fmt.Errorf("core: equation %d repeats term %d", i, v)
			}
			if v += int64(gap); v > math.MaxInt32 {
				return fmt.Errorf("core: equation %d has a term past 2^31", i)
			}
			dec.vars = append(dec.vars, graph.NodeID(v))
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
