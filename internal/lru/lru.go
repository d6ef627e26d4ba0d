// Package lru implements a bounded least-recently-used cache, and on top of
// it the baselines' placement policy (policy.go).
//
// The CARP baseline stores received objects "replacing existing information
// based on the LRU algorithm" (§V.1.1), and the paper's single-table is "the
// well-known LRU algorithm" (§III.3.1). This implementation is the O(1)
// map-plus-intrusive-list variant; the paper's own linked-list-with-scan
// variant (whose O(n) cost shows up in Fig. 15) is available in
// internal/core as the "list" table backend for the ablation study.
package lru

// Cache is a fixed-capacity LRU cache from K to V. The zero value is not
// usable; construct with New. Cache is not safe for concurrent use: every
// node in the simulator owns its caches exclusively (agents share nothing
// and communicate by message passing), so locking would be pure overhead.
type Cache[K comparable, V any] struct {
	capacity int
	items    map[K]*node[K, V]
	// head/tail of the recency list: head.next is most recent,
	// tail.prev is least recent. Sentinel nodes avoid nil checks.
	head, tail *node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	value      V
	prev, next *node[K, V]
}

// New returns an empty cache holding at most capacity entries.
// Capacity must be positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	c := &Cache[K, V]{
		capacity: capacity,
		items:    make(map[K]*node[K, V], capacity),
		head:     &node[K, V]{},
		tail:     &node[K, V]{},
	}
	c.head.next = c.tail
	c.tail.prev = c.head
	return c
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if n, ok := c.items[key]; ok {
		c.moveToFront(n)
		return n.value, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is cached, without touching recency.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or updates key and marks it most recently used. It returns
// true if an old entry was evicted to make room.
func (c *Cache[K, V]) Put(key K, value V) bool {
	if n, ok := c.items[key]; ok {
		n.value = value
		c.moveToFront(n)
		return false
	}
	evicted := false
	if len(c.items) >= c.capacity {
		c.evictOldest()
		evicted = true
	}
	n := &node[K, V]{key: key, value: value}
	c.items[key] = n
	c.insertFront(n)
	return evicted
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cap returns the configured capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

func (c *Cache[K, V]) evictOldest() {
	n := c.tail.prev
	c.unlink(n)
	delete(c.items, n.key)
}

func (c *Cache[K, V]) insertFront(n *node[K, V]) {
	n.prev = c.head
	n.next = c.head.next
	c.head.next.prev = n
	c.head.next = n
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	c.unlink(n)
	c.insertFront(n)
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}
