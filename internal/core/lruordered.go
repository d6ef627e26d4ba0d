package core

import "github.com/adc-sim/adc/internal/ids"

// lruOrdered is an Ordered implementation that orders by recency of update
// instead of aged average: Insert always places the entry at the
// most-recent end and evicts the least recently updated entry when full.
// Together with Config.CacheAdmitAll it turns the caching table into the
// "typical LRU algorithm" the paper compares selective caching against
// (§III.4) — the ablation baseline, not part of the ADC algorithm proper.
//
// Entries link through their intrusive prev/next fields; head.next is the
// most recently inserted entry. By-object search is a walk (hot-path
// membership lives in the Tables directory).
type lruOrdered struct {
	capacity   int
	head, tail Entry
	size       int
}

var _ Ordered = (*lruOrdered)(nil)

func newLRUOrdered(capacity int) *lruOrdered {
	t := &lruOrdered{capacity: capacity}
	t.head.next = &t.tail
	t.tail.prev = &t.head
	return t
}

func (t *lruOrdered) Len() int { return t.size }
func (t *lruOrdered) Cap() int { return t.capacity }

func (t *lruOrdered) find(obj ids.ObjectID) *Entry {
	for e := t.head.next; e != &t.tail; e = e.next {
		if e.Object == obj {
			return e
		}
	}
	return nil
}

func (t *lruOrdered) Contains(obj ids.ObjectID) bool { return t.find(obj) != nil }

func (t *lruOrdered) Get(obj ids.ObjectID) *Entry { return t.find(obj) }

// RemoveEntry unlinks a known-present entry in O(1).
func (t *lruOrdered) RemoveEntry(e *Entry) { t.unlink(e) }

func (t *lruOrdered) Insert(e *Entry) *Entry {
	if t.capacity == 0 {
		return e
	}
	var evicted *Entry
	if t.size >= t.capacity {
		evicted = t.removeWorst()
	}
	e.prev = &t.head
	e.next = t.head.next
	t.head.next.prev = e
	t.head.next = e
	t.size++
	return evicted
}

// removeWorst evicts and returns the least recently inserted entry, or nil
// when empty.
func (t *lruOrdered) removeWorst() *Entry {
	if t.size == 0 {
		return nil
	}
	e := t.tail.prev
	t.unlink(e)
	return e
}

func (t *lruOrdered) WorstKey() (int64, bool) {
	if t.size == 0 {
		return 0, false
	}
	return t.tail.prev.Key(), true
}

// Each walks entries from most to least recently updated; "ascending key
// order" does not apply to the recency ordering.
func (t *lruOrdered) Each(fn func(*Entry) bool) {
	for e := t.head.next; e != &t.tail; e = e.next {
		if !fn(e) {
			return
		}
	}
}

// Entries returns entries from most to least recently updated.
func (t *lruOrdered) Entries() []*Entry {
	out := make([]*Entry, 0, t.size)
	for e := t.head.next; e != &t.tail; e = e.next {
		out = append(out, e)
	}
	return out
}

func (t *lruOrdered) unlink(e *Entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	t.size--
}
