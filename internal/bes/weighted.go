package bes

import "container/heap"

// Weighted is the arithmetic counterpart of System used by disDist
// (Section 4): equations of the form
//
//	Xv = min( Xv1 + w1, Xv2 + w2, ..., [c] )
//
// where the optional constant c arises when the target t is reachable
// within the fragment at distance c. Variables with no equation and no
// constant have value +infinity (unreachable). The coordinator solves the
// system by running Dijkstra over the weighted dependency graph Gd, exactly
// as procedure evalDGd prescribes.
type Weighted[K comparable] struct {
	idx   map[K]int
	vars  []K
	cons  []int64 // constant term, or Inf
	deps  [][]warc
	edges int
	claims
}

type warc struct {
	to int
	w  int64
}

// Inf is the distance of unreachable variables.
const Inf = int64(1) << 62

// NewWeighted returns an empty weighted system.
func NewWeighted[K comparable]() *Weighted[K] {
	return &Weighted[K]{idx: make(map[K]int)}
}

func (s *Weighted[K]) intern(x K) int {
	if i, ok := s.idx[x]; ok {
		return i
	}
	i := len(s.vars)
	s.idx[x] = i
	s.vars = append(s.vars, x)
	s.cons = append(s.cons, Inf)
	s.deps = append(s.deps, nil)
	return i
}

// AddConst records the constant term c as a candidate for min(x): x <= c.
func (s *Weighted[K]) AddConst(x K, c int64) {
	i := s.intern(x)
	if c < s.cons[i] {
		s.cons[i] = c
	}
}

// Claim records that source src contributed a min-equation for x, possibly
// one with no terms (see System.Claim).
func (s *Weighted[K]) Claim(src int, x K) {
	s.claims = append(s.claims, [2]int32{int32(s.intern(x)), int32(src)})
}

// AddTerm records the term (v + w) as a candidate for min(x): x <= v + w.
func (s *Weighted[K]) AddTerm(x K, v K, w int64) {
	i := s.intern(x)
	j := s.intern(v)
	s.deps[i] = append(s.deps[i], warc{to: j, w: w})
	s.edges++
}

// NumVars reports the number of distinct variables mentioned.
func (s *Weighted[K]) NumVars() int { return len(s.vars) }

// NumEdges reports the number of weighted dependency edges.
func (s *Weighted[K]) NumEdges() int { return s.edges }

// Solve returns the value of variable x in the least solution, or Inf if x
// is unbounded (unreachable). It runs Dijkstra from x over the dependency
// graph: the value of x is the minimum over dependency paths x ~> y of
// (path weight + constant at y). Time O(|Ed| + |Vd| log |Vd|).
//
// The search settles exactly the dependency closure of x, so Solve also
// reports, sorted, the sources that claimed a variable in it — the
// weighted form of System.Sources.
func (s *Weighted[K]) Solve(x K) (int64, []int) {
	src, ok := s.idx[x]
	if !ok {
		return Inf, []int{}
	}
	dist := make([]int64, len(s.vars))
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := &heap64{{0, src}}
	best := Inf
	for pq.Len() > 0 {
		it := heap.Pop(pq).(item64)
		if it.d > dist[it.v] {
			continue
		}
		if s.cons[it.v] != Inf && it.d+s.cons[it.v] < best {
			best = it.d + s.cons[it.v]
		}
		for _, a := range s.deps[it.v] {
			if nd := it.d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(pq, item64{nd, a.to})
			}
		}
	}
	return best, s.sources(func(i int) bool { return dist[i] != Inf })
}

type item64 struct {
	d int64
	v int
}

type heap64 []item64

func (h heap64) Len() int            { return len(h) }
func (h heap64) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h heap64) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *heap64) Push(x interface{}) { *h = append(*h, x.(item64)) }
func (h *heap64) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
