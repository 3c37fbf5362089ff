package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"distreach/internal/graph"
)

// Binary wire codecs for the two equation lists, Rows (every partial of qr
// and qbr) and RPQPartial, used by the TCP runtime (internal/netsite). The
// simulation does not run them: it charges the paper's byte accounting
// (ReachWireSize, distWireSize, RPQPartial.WireSize) instead. Every
// integer is a varint, and node IDs are zigzag deltas from the previous
// node of the list, so an equation costs a few bytes and a disjunct one to
// three on graphs of up to a few million nodes. Each layout carries a
// leading version byte so it can evolve; a decoder accepts only the
// shortest form of each varint, so whatever decodes re-encodes to the same
// bytes.

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("core: truncated wire payload at offset %d", r.off)
	}
}

// uvarint reads an unsigned varint; an overlong or truncated one fails.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 { // truncated, overlong or padded
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// varint31 reads an unsigned varint that must fit a non-negative int32: a
// node ID, a distance, an automaton state.
func (r *reader) varint31() int32 {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail()
		return 0
	}
	return int32(v)
}

// node reads a node ID written by appendNode after prev, and advances prev.
func (r *reader) node(prev *int64) graph.NodeID {
	u := r.uvarint()
	v := *prev + int64(u>>1)
	if u&1 != 0 {
		v = *prev - int64(u>>1) - 1
	}
	if v < 0 || v > math.MaxInt32 {
		r.fail()
		return 0
	}
	*prev = v
	return graph.NodeID(v)
}

// appendNode writes node v as a zigzag varint delta from prev (the previous
// node of the list, 0 before the first) and advances prev: the nodes of
// sorted rows cost a byte or two each.
func appendNode(b []byte, v graph.NodeID, prev *int64) []byte {
	d := int64(v) - *prev
	*prev = int64(v)
	if d >= 0 {
		return binary.AppendUvarint(b, uint64(d)<<1)
	}
	return binary.AppendUvarint(b, uint64(-d-1)<<1|1)
}

// end fails unless the whole payload was consumed.
func (r *reader) end() {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("core: %d trailing bytes in wire payload", len(r.b)-r.off)
	}
}

// count guards length prefixes against hostile payloads: each counted item
// occupies at least min bytes of the remaining buffer.
func (r *reader) count(n uint64, min int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(min) {
		r.fail()
		return 0
	}
	return int(n)
}

// Layout versions. Rows version 1 had no flags byte and weighed every
// variable; RPQPartial version 1 spent fixed-width words on every field.
const (
	rowsVersion = 2
	rpqVersion  = 2
)

// rowsWeighted is the Rows flag bit that says every variable carries a
// weight; no other bit is defined.
const rowsWeighted = 1

// MarshalBinary implements encoding.BinaryMarshaler for Rows:
//
//	version u8 | flags u8 | equations uvarint | per equation:
//	  node (delta) | cons+1 uvarint (0: no constant) | vars uvarint
//	  | per variable: ID uvarint [| weight uvarint, when weighted]
func (rv *Rows) MarshalBinary() ([]byte, error) {
	n := rv.NumEqs()
	b := make([]byte, 0, 2+binary.MaxVarintLen32+4*n+4*len(rv.vars))
	b = append(b, rowsVersion, 0)
	if rv.weighted {
		b[1] = rowsWeighted
	}
	b = binary.AppendUvarint(b, uint64(n))
	var prev int64
	for i := 0; i < n; i++ {
		node, cons, vars, ws := rv.Eq(i)
		b = appendNode(b, node, &prev)
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
	r := &reader{b: data}
	if v := r.u8(); v != rowsVersion && r.err == nil {
		return fmt.Errorf("core: unsupported Rows version %d", v)
	}
	flags := r.u8()
	if flags&^rowsWeighted != 0 {
		return fmt.Errorf("core: unknown Rows flags %#x", flags)
	}
	weighted := flags == rowsWeighted
	term := 1
	if weighted {
		term = 2
	}
	n := r.count(r.uvarint(), 3)
	dec := newRows(n, weighted)
	// What the equations leave of the payload bounds the disjuncts.
	terms := max(0, len(data)-r.off-3*n) / term
	dec.vars = make([]graph.NodeID, 0, terms)
	if weighted {
		dec.ws = make([]int32, 0, terms)
	}
	var prev int64
	for i := 0; i < n && r.err == nil; i++ {
		dec.nodes = append(dec.nodes, r.node(&prev))
		cons := r.varint31() - 1
		if !weighted && cons > 0 {
			return fmt.Errorf("core: Boolean equation with constant %d", cons)
		}
		dec.cons = append(dec.cons, cons)
		nv := r.count(r.uvarint(), term)
		for j := 0; j < nv; j++ {
			dec.vars = append(dec.vars, graph.NodeID(r.varint31()))
			if weighted {
				dec.ws = append(dec.ws, r.varint31())
			}
		}
		dec.offs = append(dec.offs, uint32(len(dec.vars)))
	}
	if r.end(); r.err != nil {
		return r.err
	}
	*rv = *dec
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for RPQPartial:
//
//	version u8 | varSpace uvarint | equations uvarint | per equation:
//	  node (delta) | entries uvarint | per entry:
//	    state<<1|constTrue uvarint | vars uvarint | per variable: key uvarint
//
// An equation without entries is kept: TouchedRPQ reads its presence.
func (rv *RPQPartial) MarshalBinary() ([]byte, error) {
	b := []byte{rpqVersion}
	b = binary.AppendUvarint(b, uint64(rv.varSpace))
	b = binary.AppendUvarint(b, uint64(len(rv.eqs)))
	var prev int64
	for _, eq := range rv.eqs {
		b = appendNode(b, eq.node, &prev)
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
	r := &reader{b: data}
	if v := r.u8(); v != rpqVersion && r.err == nil {
		return fmt.Errorf("core: unsupported RPQPartial version %d", v)
	}
	varSpace := r.varint31()
	n := r.count(r.uvarint(), 2)
	eqs := make([]rpqEqs, n)
	eoffs := make([]int, 1, n+1) // equation i's entries: entries[eoffs[i]:eoffs[i+1]]
	var entries []rpqEntry
	var voffs []int // entry j's vars: vars[voffs[j]:voffs[j+1]]
	var vars []rpqVar
	var prev int64
	for i := 0; i < n && r.err == nil; i++ {
		eqs[i].node = r.node(&prev)
		ne := r.count(r.uvarint(), 2)
		for j := 0; j < ne && r.err == nil; j++ {
			sf := r.uvarint()
			if sf>>1 > math.MaxInt32 {
				r.fail()
			}
			entries = append(entries, rpqEntry{state: int(sf >> 1), constTrue: sf&1 != 0})
			voffs = append(voffs, len(vars))
			nv := r.count(r.uvarint(), 1)
			for k := 0; k < nv; k++ {
				v := r.uvarint()
				if v > math.MaxInt64 {
					r.fail()
				}
				vars = append(vars, rpqVar(v))
			}
		}
		eoffs = append(eoffs, len(entries))
	}
	if r.end(); r.err != nil {
		return r.err
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
