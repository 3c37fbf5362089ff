package fragment

import (
	"sort"

	"distreach/internal/graph"
)

// Compact per-fragment storage. A fragment used to carry a
// map[graph.NodeID]int32 (global -> local), a []graph.NodeID (local ->
// global), a [][]int32 adjacency and a []string label column — roughly a
// hundred bytes per node before a single edge is stored, dominated by the
// map and the per-row slice allocations. The structures in this file
// replace all of that with flat arrays plus small mutation overlays, the
// same base+overlay discipline as internal/csr:
//
//   - idIndex keeps ONE array, the local->global column, laid out so it
//     doubles as the global->local index: the real prefix and the virtual
//     tail are each sorted by global ID, so a lookup is two binary
//     searches. Live mutations (which renumber slots by swapping) go to
//     small patch/override maps consulted first.
//   - labelTable interns labels: one byte per node referencing a
//     dictionary of distinct labels, with a spill map for the unbounded
//     case (more than 256 distinct labels).
//
// Both are restored to their flat form by compact(), which fragments run
// at rebalance and snapshot time alongside csr.Store.Compact.

// idIndex is the two-way local-slot <-> global-ID mapping.
//
// The base array is immutable between compactions: base[l] is the global
// ID of slot l as of the last compaction, with base[:baseReal] and
// base[baseReal:] each sorted ascending, so global->local needs no second
// array — two binary searches recover the slot. Mutations never touch
// base; they record slot reassignments in patch/tail (local->global) and
// moved or removed globals in over/dead (global->local). The caller (the
// swap choreography in update.go) is responsible for recording the fate
// of every displaced global, exactly as it maintained the two parallel
// structures before.
type idIndex struct {
	base     []graph.NodeID // slot -> global at last compaction
	baseReal int            // real/virtual split of base at last compaction
	n        int            // current slot count

	patch map[int32]graph.NodeID // slot overrides, slot < len(base)
	tail  []graph.NodeID         // slots appended past the base
	over  map[graph.NodeID]int32 // global -> slot overrides
	dead  map[graph.NodeID]bool  // globals whose base hit is stale
}

// newIDIndex wraps a base array whose real prefix [0,nReal) and virtual
// tail [nReal,len) are each sorted ascending by global ID.
func newIDIndex(base []graph.NodeID, nReal int) *idIndex {
	return &idIndex{base: base, baseReal: nReal, n: len(base)}
}

// len reports the current slot count.
func (ix *idIndex) len() int { return ix.n }

// global maps slot l to its global ID.
func (ix *idIndex) global(l int32) graph.NodeID {
	if int(l) >= len(ix.base) {
		return ix.tail[int(l)-len(ix.base)]
	}
	if v, ok := ix.patch[l]; ok {
		return v
	}
	return ix.base[l]
}

// searchBase finds v in the base array: two binary searches, one per
// sorted segment.
func (ix *idIndex) searchBase(v graph.NodeID) (int32, bool) {
	seg := ix.base[:ix.baseReal]
	if at := sort.Search(len(seg), func(i int) bool { return seg[i] >= v }); at < len(seg) && seg[at] == v {
		return int32(at), true
	}
	seg = ix.base[ix.baseReal:]
	if at := sort.Search(len(seg), func(i int) bool { return seg[i] >= v }); at < len(seg) && seg[at] == v {
		return int32(ix.baseReal + at), true
	}
	return 0, false
}

// local maps global ID v to its slot; ok is false when v is not mapped.
func (ix *idIndex) local(v graph.NodeID) (int32, bool) {
	if l, ok := ix.over[v]; ok {
		return l, true
	}
	if ix.dead[v] {
		return 0, false
	}
	if l, ok := ix.searchBase(v); ok {
		return l, true
	}
	return 0, false
}

// setGlobal rewrites the slot -> global direction only: slot l now reads
// back v. The previous occupant's global -> slot entry is untouched.
func (ix *idIndex) setGlobal(l int32, v graph.NodeID) {
	if int(l) >= len(ix.base) {
		ix.tail[int(l)-len(ix.base)] = v
		return
	}
	if ix.patch == nil {
		ix.patch = make(map[int32]graph.NodeID)
	}
	ix.patch[l] = v
}

// setLocal rewrites the global -> slot direction only: v now resolves to
// slot l.
func (ix *idIndex) setLocal(v graph.NodeID, l int32) {
	if ix.over == nil {
		ix.over = make(map[graph.NodeID]int32)
	}
	ix.over[v] = l
	delete(ix.dead, v)
}

// delLocal removes v from the global -> slot direction.
func (ix *idIndex) delLocal(v graph.NodeID) {
	delete(ix.over, v)
	if _, ok := ix.searchBase(v); ok {
		if ix.dead == nil {
			ix.dead = make(map[graph.NodeID]bool)
		}
		ix.dead[v] = true
	}
}

// append assigns v the next slot and records both directions.
func (ix *idIndex) append(v graph.NodeID) int32 {
	l := int32(ix.n)
	if ix.n < len(ix.base) {
		// A truncation shrank below the base; reuse the slot via patch.
		ix.setGlobal(l, v)
	} else {
		ix.tail = append(ix.tail, v)
	}
	ix.setLocal(v, l)
	ix.n++
	return l
}

// truncate drops every slot >= n. Globals occupying dropped slots must
// already have been delLocal'd (or moved) by the caller.
func (ix *idIndex) truncate(n int) {
	if keep := n - len(ix.base); keep < len(ix.tail) {
		if keep < 0 {
			keep = 0
		}
		ix.tail = ix.tail[:keep]
	}
	ix.n = n
}

// overlayEntries reports the compaction debt of the index.
func (ix *idIndex) overlayEntries() int {
	return len(ix.patch) + len(ix.tail) + len(ix.over) + len(ix.dead)
}

// bytes estimates resident bytes: exact for the base, ~48 bytes per map
// entry for the overlays.
func (ix *idIndex) bytes() int64 {
	return int64(cap(ix.base))*4 + int64(cap(ix.tail))*4 +
		48*int64(len(ix.patch)+len(ix.over)+len(ix.dead))
}

// labelTable stores one label per slot, interned: slots reference a
// dictionary of distinct labels through a one-byte id. Fragments carry
// few distinct labels (query alphabets are small), so the dictionary is
// tiny; if a workload ever exceeds 256 distinct labels the extras land in
// a spill map rather than growing the per-slot width.
type labelTable struct {
	dict  []string         // distinct labels, first 256 addressable by id
	ids   map[string]int   // label -> dict position
	of    []uint8          // slot -> dict id (ignored when spilled)
	spill map[int32]string // slots whose label did not fit the dictionary
}

func newLabelTable(n int) *labelTable {
	return &labelTable{ids: make(map[string]int), of: make([]uint8, 0, n)}
}

// len reports the slot count.
func (lt *labelTable) len() int { return len(lt.of) }

// get returns the label of slot l.
func (lt *labelTable) get(l int32) string {
	if id, ok := lt.code(l); ok {
		return lt.dict[id]
	}
	return lt.spill[l]
}

// code returns the dictionary id of slot l's label, or false when the
// label is spilled. The spill map is consulted only when it holds
// anything, which keeps a map lookup off every read of a fragment with at
// most 256 distinct labels.
func (lt *labelTable) code(l int32) (uint8, bool) {
	if len(lt.spill) != 0 {
		if _, ok := lt.spill[l]; ok {
			return 0, false
		}
	}
	return lt.of[l], true
}

// intern returns the dictionary id for s, or -1 when the dictionary is
// full and s is not in its addressable range.
func (lt *labelTable) intern(s string) int {
	if id, ok := lt.ids[s]; ok {
		if id < 256 {
			return id
		}
		return -1
	}
	lt.ids[s] = len(lt.dict)
	lt.dict = append(lt.dict, s)
	if len(lt.dict) <= 256 {
		return len(lt.dict) - 1
	}
	return -1
}

// set stores s as the label of existing slot l.
func (lt *labelTable) set(l int32, s string) {
	if id := lt.intern(s); id >= 0 {
		lt.of[l] = uint8(id)
		delete(lt.spill, l)
		return
	}
	if lt.spill == nil {
		lt.spill = make(map[int32]string)
	}
	lt.spill[l] = s
}

// append adds s as the label of the next slot.
func (lt *labelTable) append(s string) {
	lt.of = append(lt.of, 0)
	lt.set(int32(len(lt.of)-1), s)
}

// truncate drops every slot >= n.
func (lt *labelTable) truncate(n int) {
	for l := range lt.spill {
		if int(l) >= n {
			delete(lt.spill, l)
		}
	}
	lt.of = lt.of[:n]
}

// bytes estimates resident bytes: one byte per slot, string headers plus
// content for the dictionary, ~64 bytes per spill/index entry.
func (lt *labelTable) bytes() int64 {
	b := int64(cap(lt.of))
	for _, s := range lt.dict {
		b += 16 + int64(len(s)) + 48 // header+content plus the ids map entry
	}
	for _, s := range lt.spill {
		b += 64 + int64(len(s))
	}
	return b
}
