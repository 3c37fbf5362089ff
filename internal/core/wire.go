package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"distreach/internal/graph"
)

// Binary wire codecs for the partial answers, used by the TCP runtime
// (internal/netsite). The encodings realize the byte accounting of the
// in-process simulation: an equation costs its node ID plus its disjunct
// list. All integers are little-endian; formats carry a leading version
// byte so they can evolve.

const wireVersion = 1

// appendU32 and friends keep the codecs allocation-light.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

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

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
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
	if n <= 0 {
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

// MarshalBinary implements encoding.BinaryMarshaler for ReachPartial.
func (rv *ReachPartial) MarshalBinary() ([]byte, error) {
	n := rv.NumEqs()
	b := make([]byte, 0, 5+9*n+4*len(rv.vars))
	b = append(b, wireVersion)
	b = appendU32(b, uint32(n))
	for i := 0; i < n; i++ {
		eq := rv.at(i)
		b = appendU32(b, uint32(eq.node))
		if eq.constTrue {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendU32(b, uint32(len(eq.vars)))
		for _, v := range eq.vars {
			b = appendU32(b, uint32(v))
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for ReachPartial.
func (rv *ReachPartial) UnmarshalBinary(data []byte) error {
	r := &reader{b: data}
	if v := r.u8(); v != wireVersion && r.err == nil {
		return fmt.Errorf("core: unsupported ReachPartial version %d", v)
	}
	n := r.count(uint64(r.u32()), 9)
	// One backing array per field, sized from the payload: every equation
	// costs 9 bytes and what is left over can only be disjuncts, so the
	// decoded partial is about as large as its encoding however the
	// disjuncts are spread over the equations.
	dec := ReachPartial{
		nodes: make([]graph.NodeID, 0, n),
		truth: make([]bool, 0, n),
		offs:  make([]uint32, 1, n+1),
		vars:  make([]graph.NodeID, 0, (len(data)-r.off-9*n)/4),
	}
	for i := 0; i < n; i++ {
		dec.nodes = append(dec.nodes, graph.NodeID(r.u32()))
		dec.truth = append(dec.truth, r.u8() == 1)
		nv := r.count(uint64(r.u32()), 4)
		for j := 0; j < nv; j++ {
			dec.vars = append(dec.vars, graph.NodeID(r.u32()))
		}
		dec.offs = append(dec.offs, uint32(len(dec.vars)))
	}
	if r.err != nil {
		return r.err
	}
	*rv = dec
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for DistPartial.
func (rv *DistPartial) MarshalBinary() ([]byte, error) {
	b := []byte{wireVersion}
	b = appendU32(b, uint32(len(rv.eqs)))
	for _, eq := range rv.eqs {
		b = appendU32(b, uint32(eq.node))
		b = appendU32(b, uint32(len(eq.terms)))
		for _, term := range eq.terms {
			if term.isConst {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = appendU32(b, uint32(term.varNode))
			b = appendU64(b, uint64(term.w))
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for DistPartial.
func (rv *DistPartial) UnmarshalBinary(data []byte) error {
	r := &reader{b: data}
	if v := r.u8(); v != wireVersion && r.err == nil {
		return fmt.Errorf("core: unsupported DistPartial version %d", v)
	}
	n := r.count(uint64(r.u32()), 8)
	eqs := make([]distEq, 0, n)
	for i := 0; i < n; i++ {
		eq := distEq{node: graph.NodeID(r.u32())}
		nt := r.count(uint64(r.u32()), 13)
		for j := 0; j < nt; j++ {
			term := distTerm{isConst: r.u8() == 1}
			term.varNode = graph.NodeID(r.u32())
			term.w = int64(r.u64())
			eq.terms = append(eq.terms, term)
		}
		eqs = append(eqs, eq)
	}
	if r.err != nil {
		return r.err
	}
	rv.eqs = eqs
	return nil
}

// The compact layouts: weighted rows (Rows) and regex partials
// (RPQPartial), the two equation lists whose size the wire pays for. Every
// integer is a varint and node IDs are zigzag deltas from the previous node
// of the list, so an equation costs a few bytes and a disjunct two or three
// on graphs of up to a few million nodes. Each layout has its own version.
const (
	rowsVersion = 1
	rpqVersion  = 2 // version 1 spent fixed-width words on every field
)

// MarshalBinary implements encoding.BinaryMarshaler for Rows:
//
//	version u8 | equations uvarint | per equation:
//	  node (delta) | cons+1 uvarint (0: no constant) | vars uvarint
//	  | per variable: ID uvarint | weight uvarint
func (rv *Rows) MarshalBinary() ([]byte, error) {
	n := rv.NumEqs()
	b := make([]byte, 0, 1+binary.MaxVarintLen32+4*n+4*len(rv.vars))
	b = append(b, rowsVersion)
	b = binary.AppendUvarint(b, uint64(n))
	var prev int64
	for i := 0; i < n; i++ {
		node, cons, vars, ws := rv.Eq(i)
		b = appendNode(b, node, &prev)
		b = binary.AppendUvarint(b, uint64(cons+1))
		b = binary.AppendUvarint(b, uint64(len(vars)))
		for j, v := range vars {
			b = binary.AppendUvarint(b, uint64(v))
			b = binary.AppendUvarint(b, uint64(ws[j]))
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for Rows. Every
// equation takes at least 3 bytes and every disjunct 2, so what it decodes
// is at most about 4x its encoding however a payload is shaped. Trailing
// bytes are rejected.
func (rv *Rows) UnmarshalBinary(data []byte) error {
	r := &reader{b: data}
	if v := r.u8(); v != rowsVersion && r.err == nil {
		return fmt.Errorf("core: unsupported Rows version %d", v)
	}
	n := r.count(r.uvarint(), 3)
	dec := Rows{
		nodes: make([]graph.NodeID, 0, n),
		cons:  make([]int32, 0, n),
		offs:  make([]uint32, 1, n+1),
	}
	var prev int64
	for i := 0; i < n && r.err == nil; i++ {
		dec.nodes = append(dec.nodes, r.node(&prev))
		dec.cons = append(dec.cons, r.varint31()-1)
		nv := r.count(r.uvarint(), 2)
		for j := 0; j < nv; j++ {
			dec.vars = append(dec.vars, graph.NodeID(r.varint31()))
			dec.ws = append(dec.ws, r.varint31())
		}
		dec.offs = append(dec.offs, uint32(len(dec.vars)))
	}
	if r.end(); r.err != nil {
		return r.err
	}
	*rv = dec
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
