// Package lru is the repository's one least-recently-used cache: a
// budgeted LRU whose entries each cost what a caller-supplied size
// function says, with doorkeeper admission for entries heavy enough to
// displace a large share of the working set. treeschedd runs two
// instances: its response cache (every response costs one unit of a
// count budget) and the cross-request Precompute cache (every entry costs
// its estimated bytes).
package lru

import (
	"container/list"
	"fmt"
	"sync"
)

// heavyFraction splits admissions into two classes: entries costing at
// most ⌈budget/heavyFraction⌉ are admitted on first sight, while heavier
// entries must have been offered once before (tracked by the doorkeeper
// generations below). A single giant entry then cannot flush a working
// set of small hot entries on one cold offer, but a genuinely repeated
// giant entry is admitted on its second offer. Rounding up keeps
// unit-cost entries light at every budget.
const heavyFraction = 8

// doorkeeperCap bounds each doorkeeper generation; when the young
// generation fills up it becomes the old one and the old is dropped, so
// the ghost-key memory is bounded and ages out in offer time rather than
// wall-clock time.
const doorkeeperCap = 4096

// Stats is a point-in-time snapshot of a Cache.
type Stats struct {
	Hits      int64 // Get calls that returned an entry
	Misses    int64 // Get calls that found nothing
	Evictions int64 // entries dropped for space (Purge included)
	Bytes     int64 // resident cost in budget units, by the size function
	Entries   int64 // resident entry count
}

// Cache is a size-aware, admission-weighted LRU from string keys to
// values of type V. Its budget bounds the summed cost of the resident
// entries, each charged size(value) on admission; entries costing more
// than the whole budget are never admitted. Values are shared between
// every caller that gets them, so they must be safe to read concurrently
// and must not be mutated after Add.
//
// All methods are safe for concurrent use. Get performs no allocation.
type Cache[V any] struct {
	mu     sync.Mutex
	budget int64
	size   func(V) int64
	cost   int64
	ll     *list.List // front = most recently used; values are *entry[V]
	items  map[string]*list.Element
	// Doorkeeper generations for heavy entries: keys offered but not (yet)
	// admitted. [0] is the young generation, [1] the old.
	seen [2]map[string]struct{}

	hits, misses, evictions int64
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// New returns a cache bounded to budget (must be > 0) that charges each
// entry size(value).
func New[V any](budget int64, size func(V) int64) *Cache[V] {
	if budget <= 0 {
		panic(fmt.Sprintf("lru: budget must be > 0, got %d", budget))
	}
	return &Cache[V]{
		budget: budget,
		size:   size,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		seen:   [2]map[string]struct{}{{}, {}},
	}
}

// Get returns the value cached under key, refreshing its recency, and
// counts the hit or miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Add offers v for key and reports whether it was admitted. A resident
// key is refreshed and keeps its value: callers cache one value per key,
// so any value offered for it is as good as the resident one. Rejected
// heavy offers are remembered by the doorkeeper so a repeat offer is
// admitted.
func (c *Cache[V]) Add(key string, v V) bool {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	if size > c.budget {
		return false
	}
	if size > (c.budget+heavyFraction-1)/heavyFraction && !c.seenBefore(key) {
		c.remember(key)
		return false
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v, size: size})
	c.cost += size
	for c.cost > c.budget {
		c.evictOldest()
	}
	return true
}

// Purge drops every entry (the eviction-storm chaos site) and returns the
// number dropped. The doorkeeper survives: a storm should not also force
// heavy entries back through two offers.
func (c *Cache[V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.items)
	c.evictions += int64(n)
	c.ll.Init()
	clear(c.items)
	c.cost = 0
	return n
}

// Stats returns a consistent snapshot of the counters and residency. A
// nil Cache, the form a disabled cache takes, reports zeros.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.cost,
		Entries:   int64(len(c.items)),
	}
}

// evictOldest drops the least recently used entry. Add calls it only while
// the resident cost, the sum of the resident sizes, exceeds the budget, so
// the list is never empty here.
func (c *Cache[V]) evictOldest() {
	el := c.ll.Back()
	ent := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.cost -= ent.size
	c.evictions++
}

func (c *Cache[V]) seenBefore(key string) bool {
	if _, ok := c.seen[0][key]; ok {
		return true
	}
	_, ok := c.seen[1][key]
	return ok
}

func (c *Cache[V]) remember(key string) {
	if len(c.seen[0]) >= doorkeeperCap {
		c.seen[1] = c.seen[0]
		c.seen[0] = make(map[string]struct{})
	}
	c.seen[0][key] = struct{}{}
}
