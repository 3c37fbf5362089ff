package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// rpqKey is the key of the Boolean variable X(v, u), "node v matches
// automaton state u", among product variables: v·nq + u, a 32-bit NodeID
// while |V|·nq < 2^31. LocalEvalRPQ panics on a fragment past that rather
// than let keys wrap and collide; the wire coordinator and sites refuse
// such a query with an error first (CheckRPQKeys).
func rpqKey(v graph.NodeID, u, nq int) graph.NodeID { return v*graph.NodeID(nq) + graph.NodeID(u) }

// CheckRPQKeys refuses a qrr query whose product keys would not fit a
// 32-bit NodeID: a graph of n nodes and an automaton of nq states.
func CheckRPQKeys(n, nq int) error {
	if int64(n)*int64(nq) >= 1<<31 {
		return fmt.Errorf("core: %d nodes × %d automaton states is past the 2^31 product keys", n, nq)
	}
	return nil
}

// RPQWireSize follows the paper's accounting for f's qrr partial rv under
// automaton a: O(|R|²·|Fi.I|·|Fi.O|) in the worst case — 4 bytes per node
// with an equation, and per equation that says something the smaller of a
// bit vector over the fragment's (boundary node × state) variable space
// and an explicit variable list.
func RPQWireSize(f *fragment.Fragment, rv *Rows, a *automaton.Automaton) int {
	nq := a.NumStates()
	var states rpqStates
	states.init(f, a)
	varSpace := 0
	for l := int32(0); int(l) < f.NumTotal(); l++ {
		if f.IsBoundary(l) {
			for _, w := range states.of(l) {
				varSpace += bits.OnesCount64(w)
			}
		}
	}
	dense := (varSpace + 1 + 7) / 8
	n, prev := 0, graph.NodeID(-1)
	for i := 0; i < rv.NumEqs(); i++ {
		key, cons, vars, _ := rv.Eq(i)
		if v := key / graph.NodeID(nq); v != prev {
			n, prev = n+4, v
		}
		if cons != NoConst || len(vars) > 0 {
			n += 3 + min(4*len(vars), dense)
		}
	}
	return n
}

// SolveRPQ is procedure evalDGr: it assembles the product rows of all
// fragments into one Boolean equation system, as SolveReach does, and
// reports whether X(s, Start) holds, i.e. whether s matches the start state
// of the query automaton. The wire coordinator answers with WalkRPQ
// instead; the two agree on every query (TestRPQPartialRoundTrip).
func SolveRPQ(partials []*Rows, s graph.NodeID, a *automaton.Automaton) bool {
	return assembleReach(partials).Decide(rpqKey(s, automaton.Start, a.NumStates()))
}

// DisRPQ evaluates the regular reachability query qrr(s, t, R) given the
// query automaton a = Gq(R) (algorithm disRPQ, Section 5). Guarantees: one
// visit per site, traffic in O(|R|²·|Vf|²), assembling in O(|R|²·|Vf|²),
// and local evaluation per site in parallel: the paper's O(|Fm|·|R|²) per
// pass of LocalEvalRPQ's frontier cut, which takes ⌈|Fi.I|·|R|/64⌉ of them
// (64 entries a pass).
func DisRPQ(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID, a *automaton.Automaton) Result {
	run := cl.NewRun()
	if s == t && a.AcceptsLabels(nil) {
		// The empty path from s to itself satisfies R (ε ∈ L(R)).
		return Result{Answer: true, Report: run.Finish()}
	}
	// Gq(R) is constructed at the coordinator and posted with the query;
	// evalDGr assembles the product rows of every site.
	var ans bool
	threePhase(run, fr.Fragments(), a.EncodedSize()+querySize,
		func(f *fragment.Fragment) *Rows { return LocalEvalRPQ(f, s, t, a) },
		func(f *fragment.Fragment, rv *Rows) int { return RPQWireSize(f, rv, a) },
		func(partial []*Rows) { ans = SolveRPQ(partial, s, a) })
	return Result{Answer: ans, Report: run.Finish()}
}

// LocalEvalRPQ computes the vectors Fi.rvset of procedure localEvalr as
// product rows, heads ascending: one Boolean equation rpqKey(v, u) per
// (in-node or locally stored s, state) entry with a term or a constant,
// and (s, Start) even without, to say which fragment holds s. The
// recursion of cmpRvec/cmposeVec, which would not terminate on a cyclic
// fragment as Fig. 7 writes it, is realized as the frontier cut of
// localEval over the fragment-local product graph (fragment node ×
// automaton state), which is never built:
//
//   - product node (v, u) exists when v can match u — L(v) = Lq(u) for a
//     position state (rpqStates), v = s for Start, v = t for Final;
//   - edge (v,u) -> (w,u') when (v,w) is a fragment edge and (u,u') ∈ Eq;
//   - a search from an entry stops at every boundary pair (b, u), b a
//     virtual node or an in-node (whose entries have equations of their
//     own), which is the term X(b,u); reaching (t, Final) is the constant
//     true.
//
// The searches run 64 entries at a time, bit-parallel as cutRows runs
// LocalRows' (rpqScratch.search), so each pass costs O(|Fm|·|R|²) word
// operations.
func LocalEvalRPQ(f *fragment.Fragment, s, t graph.NodeID, a *automaton.Automaton) *Rows {
	nq := a.NumStates()
	if err := CheckRPQKeys(f.NumTotal(), nq); err != nil {
		panic(err) // product nodes are numbered l·|Vq| + u in an int32
	}
	sc := rpqScratchPool.Get().(*rpqScratch)
	sc.prepare(f, a)
	lt, ok := f.Local(t)
	if !ok {
		lt = -1
	}

	// The entries, heads ascending: nodes by global ID, then Start (s
	// only), Final (t only, the constant true) and the position states
	// the node matches.
	iset := sc.iset[:0]
	for _, v := range isetOf(f, s) {
		iset = append(iset, uint64(f.Global(v))<<32|uint64(v))
	}
	slices.Sort(iset)
	ents := sc.ents[:0]
	for _, x := range iset {
		v, gv := int32(uint32(x)), graph.NodeID(x>>32)
		if gv == s {
			ents = append(ents, rpqEntry{v, automaton.Start})
		}
		if gv == t {
			ents = append(ents, rpqEntry{v, automaton.Final})
		}
		for k, w := range sc.states.of(v) {
			for ; w != 0; w &= w - 1 {
				ents = append(ents, rpqEntry{v, int32(k*64 + bits.TrailingZeros64(w))})
			}
		}
	}

	rv := newRows(len(iset), false)
	top := max(s, t) // every key of the part is s's, t's, an entry's or a term's
	for lo := 0; lo < len(ents); {
		src, hi := sc.src[:0], lo
		for ; hi < len(ents) && len(src) < 64; hi++ {
			if ents[hi].u != automaton.Final {
				src = append(src, ents[hi])
			}
		}
		hit := sc.search(f, nq, lt, src, &top)
		i := 0
		for _, e := range ents[lo:hi] {
			gv := f.Global(e.l)
			top = max(top, gv)
			key := rpqKey(gv, int(e.u), nq)
			if e.u == automaton.Final {
				rv.add(key, 0, nil, nil)
				continue
			}
			if cons, terms := hit>>i&1 != 0, sc.terms[i]; cons || len(terms) > 0 || e.u == automaton.Start {
				rv.add(key, truthCons(cons), terms, nil)
			}
			i++
		}
		sc.src, lo = src, hi
	}
	sc.iset, sc.ents = iset, ents
	sc.states.f, sc.states.a = nil, nil // the pool keeps no fragment alive
	rpqScratchPool.Put(sc)
	if err := CheckRPQKeys(int(top)+1, nq); err != nil {
		panic(err)
	}
	return rv
}

// rpqEntry is a product node (l, u) by local slot and state.
type rpqEntry struct{ l, u int32 }

// rpqStates is the one rule of which product nodes (v, u) exist besides
// the entries of s and t: u is a position state whose label matches v's
// (automaton.MatchesLabel; Start is s's alone and Final t's alone, so
// neither is among them). It is worked out once per query for every label
// of the fragment's dictionary, as a bitset over states of words words.
type rpqStates struct {
	f      *fragment.Fragment
	a      *automaton.Automaton
	words  int
	byCode []uint64 // dictionary id × words
	spill  []uint64 // the states of the last spilled label asked for
}

func (m *rpqStates) init(f *fragment.Fragment, a *automaton.Automaton) {
	m.f, m.a, m.words = f, a, (a.NumStates()+63)/64
	dict := f.LabelDict()
	m.byCode = zeroed(m.byCode, len(dict)*m.words)
	for c, label := range dict {
		m.fill(m.byCode[c*m.words:(c+1)*m.words], label)
	}
}

// fill sets in set, zeroed, the states that match label.
func (m *rpqStates) fill(set []uint64, label string) {
	for u := 0; u < m.a.NumStates(); u++ {
		if m.a.MatchesLabel(u, label) {
			set[u/64] |= 1 << (u % 64)
		}
	}
}

// of returns the states slot l can match. The words are valid until the
// next call.
func (m *rpqStates) of(l int32) []uint64 {
	if c, ok := m.f.LabelCode(l); ok {
		i := int(c) * m.words
		return m.byCode[i : i+m.words]
	}
	return m.spilled(l)
}

// spilled is of for a slot whose label is outside the dictionary: matched
// by its string, on every call.
func (m *rpqStates) spilled(l int32) []uint64 {
	m.spill = zeroed(m.spill, m.words)
	m.fill(m.spill, m.f.Label(l))
	return m.spill
}

// rpqScratch is one LocalEvalRPQ call's scratch. The product's words are
// total·|Vq| long — about 0.5 MB a fragment at reach_cut's shape — too
// much to allocate per query and too much to keep per fragment or site, so
// scratch lives in rpqScratchPool, which the collector empties. Between
// calls every word of seen, cur and nxt is zero.
type rpqScratch struct {
	states       rpqStates
	next         []uint64 // state × words: Next(u) without Final
	toFinal      []bool   // state: Final ∈ Next(u)
	seen, cur    []uint64 // product node l·|Vq| + u → sources
	nxt          []uint64
	front, after []int32 // product nodes
	touched      []int32 // product nodes whose seen word is set
	iset         []uint64
	ents, src    []rpqEntry
	terms        [64][]graph.NodeID
}

var rpqScratchPool = sync.Pool{New: func() any { return new(rpqScratch) }}

// prepare sizes the scratch for f and a and works out a's states and
// transitions as words.
func (sc *rpqScratch) prepare(f *fragment.Fragment, a *automaton.Automaton) {
	sc.states.init(f, a)
	nq, words := a.NumStates(), sc.states.words
	sc.next = zeroed(sc.next, nq*words)
	sc.toFinal = zeroed(sc.toFinal, nq)
	for u := 0; u < nq; u++ {
		for _, u2 := range a.Next(u) {
			if u2 == automaton.Final {
				sc.toFinal[u] = true
			} else {
				sc.next[u*words+u2/64] |= 1 << (u2 % 64)
			}
		}
	}
	if n := f.NumTotal() * nq; cap(sc.seen) < n {
		sc.seen, sc.cur, sc.nxt = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	} else {
		sc.seen, sc.cur, sc.nxt = sc.seen[:n], sc.cur[:n], sc.nxt[:n]
	}
}

// search runs the frontier cut from up to 64 distinct entries at once, as
// cutRows does over the fragment: bit i of a product node's word stands for
// src[i]. A boundary pair (b, u) reached past the entries closes its
// branch as the term X(b, u) of every entry whose bit arrives; an edge into
// (t, Final) (lt: t's slot, or -1) sets the entry's bit of the word it
// returns. Afterwards terms[i] holds src[i]'s terms, and top is at least
// every node they name.
func (sc *rpqScratch) search(f *fragment.Fragment, nq int, lt int32, src []rpqEntry, top *graph.NodeID) (hit uint64) {
	words, nq32 := sc.states.words, int32(nq)
	front, touched := sc.front[:0], sc.touched[:0]
	for i, e := range src {
		sc.terms[i] = sc.terms[i][:0]
		p := e.l*nq32 + e.u
		sc.cur[p] = 1 << i
		front = append(front, p)
		if !f.IsBoundary(e.l) {
			// An interior entry is expanded once; a boundary one is a term
			// of its own equation when a cycle leads back to it.
			sc.seen[p] = 1 << i
			touched = append(touched, p)
		}
	}
	for d := 0; len(front) > 0; d++ {
		after := sc.after[:0]
		for _, p := range front {
			word := sc.cur[p]
			sc.cur[p] = 0
			l, u := p/nq32, int(p%nq32)
			if d > 0 && f.IsBoundary(l) {
				g := f.Global(l)
				*top = max(*top, g)
				key := rpqKey(g, u, nq)
				for m := word; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					sc.terms[i] = append(sc.terms[i], key)
				}
				continue
			}
			next, toFinal := sc.next[u*words:(u+1)*words], sc.toFinal[u]
			for _, w := range f.Out(l) {
				if toFinal && w == lt {
					hit |= word
				}
				for k, match := range sc.states.of(w) {
					for m := next[k] & match; m != 0; m &= m - 1 {
						q := w*nq32 + int32(k*64+bits.TrailingZeros64(m))
						nb := word &^ sc.seen[q]
						if nb == 0 {
							continue
						}
						if sc.seen[q] == 0 {
							touched = append(touched, q)
						}
						sc.seen[q] |= nb
						if sc.nxt[q] == 0 {
							after = append(after, q)
						}
						sc.nxt[q] |= nb
					}
				}
			}
		}
		sc.cur, sc.nxt = sc.nxt, sc.cur
		sc.front, sc.after = after, front
		front = after
	}
	for _, p := range touched {
		sc.seen[p] = 0
	}
	sc.touched = touched
	return hit
}

// zeroed returns s cleared to length n, reusing its storage when it can.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
