// Package qcache is a small, concurrency-safe LRU cache for distributed
// query answers. The gateway (cmd/serve) fronts the coordinator with it:
// repeat queries — the common shape of heavy read traffic — are answered
// from memory without visiting any site. Keys encode the query class and
// its parameters.
//
// Invalidation is two-grained. Flush empties the cache wholesale (a
// redeploy: the graph or fragmentation behind the answers was swapped).
// For live edge updates there is per-fragment precision: each entry
// carries the set of fragments its answer's evaluation touched (the
// coordinator reads it off the equation system that decided the query, as
// the sites owning an equation in the dependency closure of the source
// variable; see core/touched.go for why that is sound), and EvictFragments removes exactly the
// entries whose set intersects an update's dirtied fragments — everything
// else keeps serving hits. Both invalidations advance the generation, so
// answers computed over a round trip that raced an invalidation are never
// re-inserted (PutIfGeneration).
package qcache

import (
	"container/list"
	"fmt"
	"sync"

	"distreach/internal/graph"
)

// Cache is a fixed-capacity LRU map from query key to answer.
// The zero value is not usable; create with New.
type Cache[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64 // entries removed by EvictFragments
	gen       uint64 // invalidation generation; see Generation
}

type entry[V any] struct {
	key   string
	val   V
	frags []int // fragments the answer depends on; empty = update-immune
}

// New returns a cache holding at most capacity answers; capacity < 1 is
// rounded up to 1.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get looks up key, marking it most recently used on a hit.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores key's answer with no fragment tags: the entry survives
// EvictFragments and is only dropped by LRU pressure or Flush. Use
// PutTagged (or PutIfGeneration) for answers that depend on fragment
// contents.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val, nil)
}

// PutTagged stores key's answer together with the fragments its
// evaluation touched, evicting the least recently used entry when the
// cache is full. Storing an existing key refreshes its value, tags and
// recency. An empty tag set means the answer cannot be affected by any
// edge update (e.g. qr(s,s)).
func (c *Cache[V]) PutTagged(key string, val V, frags []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val, frags)
}

func (c *Cache[V]) putLocked(key string, val V, frags []int) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		e.val = val
		e.frags = frags
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val, frags: frags})
}

// PutIfGeneration stores key's answer (with its fragment tags) only if
// the invalidation generation still equals gen — atomically with respect
// to Flush and EvictFragments — and reports whether it stored. Callers
// snapshot Generation() before computing an answer over a slow round
// trip: an invalidation landing in between turns the insert into a no-op
// instead of resurrecting a stale answer.
func (c *Cache[V]) PutIfGeneration(key string, val V, gen uint64, frags []int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return false
	}
	c.putLocked(key, val, frags)
	return true
}

// Flush empties the cache: the wholesale invalidation used on redeploy,
// when the graph or fragmentation behind the answers changes entirely. It
// also advances the invalidation generation.
func (c *Cache[V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.gen++
}

// EvictFragments removes every entry whose fragment tags intersect dirty
// and reports how many it removed. Entries whose evaluation did not touch
// a dirtied fragment — including tag-free entries — keep serving hits:
// this is the per-fragment precision that replaces a wholesale flush on
// live edge updates. The invalidation generation advances so in-flight
// rounds cannot re-insert answers computed before the update.
func (c *Cache[V]) EvictFragments(dirty []int) int {
	if len(dirty) == 0 {
		return 0
	}
	isDirty := make(map[int]bool, len(dirty))
	for _, d := range dirty {
		isDirty[d] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry[V])
		for _, f := range e.frags {
			if isDirty[f] {
				c.ll.Remove(el)
				delete(c.items, e.key)
				removed++
				break
			}
		}
		el = next
	}
	c.evictions += uint64(removed)
	c.gen++
	return removed
}

// Generation reports the invalidation generation: how many times the
// cache has been invalidated (Flush or EvictFragments). Snapshot it
// before a slow round trip and pass it to PutIfGeneration afterwards so
// an invalidation that raced the round trip is not silently undone by
// re-inserting stale answers.
func (c *Cache[V]) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Len reports the number of cached answers.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports cumulative hits and misses (not reset by Flush).
func (c *Cache[V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports the cumulative number of entries removed by
// EvictFragments (LRU and Flush removals are not counted).
func (c *Cache[V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// ReachKey is the cache key of qr(s, t).
func ReachKey(s, t graph.NodeID) string {
	return fmt.Sprintf("r:%d:%d", s, t)
}

// DistKey is the cache key of qbr(s, t, l).
func DistKey(s, t graph.NodeID, l int) string {
	return fmt.Sprintf("b:%d:%d:%d", s, t, l)
}

// RPQKey is the cache key of qrr(s, t, R) for the textual expression R.
// Distinct spellings of the same language cache separately — a harmless
// form of under-caching.
func RPQKey(s, t graph.NodeID, expr string) string {
	return fmt.Sprintf("q:%d:%d:%s", s, t, expr)
}
