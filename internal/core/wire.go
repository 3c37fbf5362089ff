package core

import (
	"encoding/binary"
	"fmt"

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

// count guards length prefixes against hostile payloads: each counted item
// occupies at least min bytes of the remaining buffer.
func (r *reader) count(n uint32, min int) int {
	if r.err != nil {
		return 0
	}
	if int(n) < 0 || int(n)*min > len(r.b)-r.off {
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
	n := r.count(r.u32(), 9)
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
		nv := r.count(r.u32(), 4)
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
	n := r.count(r.u32(), 8)
	eqs := make([]distEq, 0, n)
	for i := 0; i < n; i++ {
		eq := distEq{node: graph.NodeID(r.u32())}
		nt := r.count(r.u32(), 13)
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

// MarshalBinary implements encoding.BinaryMarshaler for RPQPartial.
func (rv *RPQPartial) MarshalBinary() ([]byte, error) {
	b := []byte{wireVersion}
	b = appendU32(b, uint32(rv.varSpace))
	b = appendU32(b, uint32(len(rv.eqs)))
	for _, eq := range rv.eqs {
		b = appendU32(b, uint32(eq.node))
		b = appendU32(b, uint32(len(eq.entries)))
		for _, e := range eq.entries {
			b = appendU32(b, uint32(e.state))
			if e.constTrue {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = appendU32(b, uint32(len(e.vars)))
			for _, v := range e.vars {
				b = appendU64(b, uint64(v))
			}
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for RPQPartial.
func (rv *RPQPartial) UnmarshalBinary(data []byte) error {
	r := &reader{b: data}
	if v := r.u8(); v != wireVersion && r.err == nil {
		return fmt.Errorf("core: unsupported RPQPartial version %d", v)
	}
	varSpace := int(r.u32())
	n := r.count(r.u32(), 8)
	eqs := make([]rpqEqs, 0, n)
	for i := 0; i < n; i++ {
		eq := rpqEqs{node: graph.NodeID(r.u32())}
		ne := r.count(r.u32(), 9)
		for j := 0; j < ne; j++ {
			e := rpqEntry{state: int(r.u32())}
			e.constTrue = r.u8() == 1
			nv := r.count(r.u32(), 8)
			for k := 0; k < nv; k++ {
				e.vars = append(e.vars, rpqVar(r.u64()))
			}
			eq.entries = append(eq.entries, e)
		}
		eqs = append(eqs, eq)
	}
	if r.err != nil {
		return r.err
	}
	rv.eqs = eqs
	rv.varSpace = varSpace
	return nil
}
