// Package csr implements the memory-compact row storage behind graphs
// and fragments: a CSR-style (compressed sparse row) immutable base — one
// offsets array and one flat targets array instead of a separately
// allocated slice per node — plus a small mutable overlay that absorbs
// live mutations. Reads hit the overlay first and fall back to zero-copy
// views into the base; writes copy the touched row out of the base once
// (copy-on-write) and mutate the copy. Compact folds the overlay back
// into a fresh base, restoring the two-array layout; the serving runtime
// calls it at rebalance and snapshot time, when it already holds the
// exclusivity those epoch-swap points guarantee.
//
// The point of the exercise is bytes per node: a [][]int32 adjacency
// costs a 24-byte slice header per node plus a separately size-classed
// allocation per row, and the map-based fragment index costs tens of
// bytes per entry; the CSR base costs 4 bytes per node (offset) plus 4
// bytes per edge, exactly.
package csr

import "sort"

// Store holds n rows of T. The zero value is not usable; construct with
// New or FromRows. Store is not safe for concurrent mutation; callers
// serialize writers against readers exactly as they do for the structures
// built on top (graph.Graph, fragment.Fragment).
type Store[T ~int32] struct {
	// Immutable base: row i of the base is tgts[offs[i]:offs[i+1]].
	// len(offs) == baseN+1. Never mutated in place after construction —
	// clones share it.
	offs []int32
	tgts []T

	n int // current row count (may differ from baseN after mutations)

	// Overlay: over holds copy-on-write replacements for base rows
	// (presence in the map is what counts — a nil value is an empty row);
	// extra holds rows appended past the base.
	over  map[int32][]T
	extra [][]T
}

// New returns an empty store with zero rows.
func New[T ~int32]() *Store[T] { return &Store[T]{offs: []int32{0}} }

// FromRows builds a compact store whose base is a copy of rows.
func FromRows[T ~int32](rows [][]T) *Store[T] {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	offs := make([]int32, len(rows)+1)
	tgts := make([]T, 0, total)
	for i, r := range rows {
		offs[i] = int32(len(tgts))
		tgts = append(tgts, r...)
	}
	offs[len(rows)] = int32(len(tgts))
	return &Store[T]{offs: offs, tgts: tgts, n: len(rows)}
}

// Transpose builds a compact store of the reverse of the n rows out gives:
// row w lists, ascending, every i whose row holds w.
func Transpose[T ~int32](n int, out func(T) []T) *Store[T] {
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for _, w := range out(T(i)) {
			offs[w+1]++
		}
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	tgts := make([]T, offs[n])
	fill := append([]int32(nil), offs[:n]...)
	for i := 0; i < n; i++ {
		for _, w := range out(T(i)) {
			tgts[fill[w]] = T(i)
			fill[w]++
		}
	}
	return &Store[T]{offs: offs, tgts: tgts, n: n}
}

func (s *Store[T]) baseN() int { return len(s.offs) - 1 }

// NumRows reports the current number of rows.
func (s *Store[T]) NumRows() int { return s.n }

// Row returns row i. The returned slice is a view — the caller must not
// modify it, and must not hold it across a Compact.
func (s *Store[T]) Row(i int32) []T {
	if int(i) >= s.baseN() {
		return s.extra[int(i)-s.baseN()]
	}
	if r, ok := s.over[i]; ok {
		return r
	}
	return s.tgts[s.offs[i]:s.offs[i+1]]
}

// RowLen reports len(Row(i)) without materializing anything.
func (s *Store[T]) RowLen(i int32) int {
	if int(i) >= s.baseN() {
		return len(s.extra[int(i)-s.baseN()])
	}
	if r, ok := s.over[i]; ok {
		return len(r)
	}
	return int(s.offs[i+1] - s.offs[i])
}

// put installs row as the content of existing row i.
func (s *Store[T]) put(i int32, row []T) {
	if int(i) >= s.baseN() {
		s.extra[int(i)-s.baseN()] = row
		return
	}
	if s.over == nil {
		s.over = make(map[int32][]T)
	}
	s.over[i] = row
}

// SetRow replaces row i (which must exist) with row. The store takes
// ownership of the slice.
func (s *Store[T]) SetRow(i int32, row []T) { s.put(i, row) }

// AppendRow adds row at index NumRows(), taking ownership of the slice.
func (s *Store[T]) AppendRow(row []T) {
	if s.n < s.baseN() {
		// A Truncate shrank below the base; reuse the slot via the overlay.
		s.put(int32(s.n), row)
	} else {
		s.extra = append(s.extra, row)
	}
	s.n++
}

// Truncate drops every row at index ≥ n.
func (s *Store[T]) Truncate(n int) {
	for i := n; i < s.n && i < s.baseN(); i++ {
		s.put(int32(i), nil)
	}
	if keep := n - s.baseN(); keep < len(s.extra) {
		if keep < 0 {
			keep = 0
		}
		for i := keep; i < len(s.extra); i++ {
			s.extra[i] = nil
		}
		s.extra = s.extra[:keep]
	}
	s.n = n
}

// Append pushes v onto the end of row i.
func (s *Store[T]) Append(i int32, v T) {
	if int(i) >= s.baseN() {
		s.extra[int(i)-s.baseN()] = append(s.extra[int(i)-s.baseN()], v)
		return
	}
	if r, ok := s.over[i]; ok {
		s.over[i] = append(r, v)
		return
	}
	base := s.tgts[s.offs[i]:s.offs[i+1]]
	row := make([]T, len(base)+1)
	copy(row, base)
	row[len(base)] = v
	s.put(i, row)
}

// InsertSorted adds v to ascending row i unless already present,
// reporting whether it inserted.
func (s *Store[T]) InsertSorted(i int32, v T) bool {
	r := s.Row(i)
	at := sort.Search(len(r), func(j int) bool { return r[j] >= v })
	if at < len(r) && r[at] == v {
		return false
	}
	row := make([]T, len(r)+1)
	copy(row, r[:at])
	row[at] = v
	copy(row[at+1:], r[at:])
	s.put(i, row)
	return true
}

// RemoveSorted deletes v from ascending row i, reporting whether it was
// present.
func (s *Store[T]) RemoveSorted(i int32, v T) bool {
	r := s.Row(i)
	at := sort.Search(len(r), func(j int) bool { return r[j] >= v })
	if at >= len(r) || r[at] != v {
		return false
	}
	s.removeAt(i, r, at)
	return true
}

// RemoveFirst deletes the first occurrence of v in row i, reporting
// whether it was present.
func (s *Store[T]) RemoveFirst(i int32, v T) bool {
	r := s.Row(i)
	for at, w := range r {
		if w == v {
			s.removeAt(i, r, at)
			return true
		}
	}
	return false
}

// removeAt drops element at of row i (r is Row(i)), mutating in place
// when the row is overlay-owned and copying out of the base otherwise.
func (s *Store[T]) removeAt(i int32, r []T, at int) {
	if s.owned(i) {
		s.put(i, append(r[:at], r[at+1:]...))
		return
	}
	row := make([]T, len(r)-1)
	copy(row, r[:at])
	copy(row[at:], r[at+1:])
	s.put(i, row)
}

// owned reports whether row i lives in the overlay (safe to mutate in
// place).
func (s *Store[T]) owned(i int32) bool {
	if int(i) >= s.baseN() {
		return true
	}
	_, ok := s.over[i]
	return ok
}

// ReplaceAll rewrites every occurrence of from to to, across all rows.
func (s *Store[T]) ReplaceAll(from, to T) {
	for i := 0; i < s.n; i++ {
		r := s.Row(int32(i))
		for j, w := range r {
			if w != from {
				continue
			}
			if !s.owned(int32(i)) {
				r = append([]T(nil), r...)
				s.put(int32(i), r)
			}
			r[j] = to
		}
	}
}

// Contains reports whether any row holds v.
func (s *Store[T]) Contains(v T) bool {
	for i := 0; i < s.n; i++ {
		for _, w := range s.Row(int32(i)) {
			if w == v {
				return true
			}
		}
	}
	return false
}

// OverlayRows reports how many rows currently live outside the base —
// the compaction debt.
func (s *Store[T]) OverlayRows() int { return len(s.over) + len(s.extra) }

// Compact folds the overlay into a fresh immutable base and drops it.
// Row views handed out earlier keep reading the old base; new reads see
// the identical content in two flat arrays.
func (s *Store[T]) Compact() {
	if s.OverlayRows() == 0 && s.n == s.baseN() {
		return // already compact
	}
	total := 0
	for i := 0; i < s.n; i++ {
		total += s.RowLen(int32(i))
	}
	offs := make([]int32, s.n+1)
	tgts := make([]T, 0, total)
	for i := 0; i < s.n; i++ {
		offs[i] = int32(len(tgts))
		tgts = append(tgts, s.Row(int32(i))...)
	}
	offs[s.n] = int32(len(tgts))
	s.offs, s.tgts = offs, tgts
	s.over, s.extra = nil, nil
}

// Clone returns an independent copy. The immutable base is shared (it is
// never written in place); overlay rows are deep-copied.
func (s *Store[T]) Clone() *Store[T] {
	c := &Store[T]{offs: s.offs, tgts: s.tgts, n: s.n}
	if len(s.over) > 0 {
		c.over = make(map[int32][]T, len(s.over))
		for i, r := range s.over {
			c.over[i] = append([]T(nil), r...)
		}
	}
	if len(s.extra) > 0 {
		c.extra = make([][]T, len(s.extra))
		for i, r := range s.extra {
			c.extra[i] = append([]T(nil), r...)
		}
	}
	return c
}

// Bytes estimates the resident bytes of the store: exact for the base,
// modeled for the overlay (24-byte slice header plus 4 bytes per element
// per overlay row, ~48 bytes per map entry).
func (s *Store[T]) Bytes() int64 {
	b := int64(cap(s.offs))*4 + int64(cap(s.tgts))*4
	for _, r := range s.over {
		b += 48 + 24 + int64(cap(r))*4
	}
	for _, r := range s.extra {
		b += 24 + int64(cap(r))*4
	}
	return b
}
