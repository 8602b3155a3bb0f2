package frameworks

// lruCache is a bounded least-recently-used map: per-entry eviction from
// the cold end, with hit/miss counters so callers can report cache
// effectiveness.
//
// lruCache is NOT internally synchronized: callers hold their own lock
// (Compiled serializes access under its cache mutex).
type lruCache[K comparable, V any] struct {
	cap     int
	entries map[K]*lruEntry[K, V]
	// head is most-recently used, tail least-recently used.
	head, tail *lruEntry[K, V]

	hits, misses uint64
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// newLRU builds a cache bounded to capacity entries (minimum 1).
func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[K, V]{cap: capacity, entries: map[K]*lruEntry[K, V]{}}
}

// Get returns the value for key, promoting it to most-recently used.
func (c *lruCache[K, V]) Get(key K) (V, bool) {
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

// Add inserts or updates key, evicting the least-recently-used entry
// when the cache is over capacity.
func (c *lruCache[K, V]) Add(key K, val V) {
	if e, ok := c.entries[key]; ok {
		e.val = val
		c.moveToFront(e)
		return
	}
	e := &lruEntry[K, V]{key: key, val: val}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		c.evictOldest()
	}
}

// Len reports the number of cached entries.
func (c *lruCache[K, V]) Len() int { return len(c.entries) }

// Stats returns the cumulative hit/miss counters.
func (c *lruCache[K, V]) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Purge drops every entry (counters are preserved: they describe the
// cache's lifetime effectiveness, not its current contents).
func (c *lruCache[K, V]) Purge() {
	c.entries = map[K]*lruEntry[K, V]{}
	c.head, c.tail = nil, nil
}

func (c *lruCache[K, V]) evictOldest() {
	if c.tail == nil {
		return
	}
	e := c.tail
	c.unlink(e)
	delete(c.entries, e.key)
}

func (c *lruCache[K, V]) moveToFront(e *lruEntry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lruCache[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
