package core

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
)

// listTable is the paper-faithful ordered-table backend: a sorted doubly
// linked list searched element-wise, the structure whose cost the paper
// measures in Fig. 15 ("Both accesses are extremely time consuming and a
// more adapted data structure should provide speed-ups", §V.3.3). Every
// operation is O(n) with pointer-chasing constants; it exists for the
// timing reproduction and the backend ablation, not for production use.
//
// The list is intrusive: entries link through their embedded prev/next
// fields, so no per-node allocation happens.
type listTable struct {
	capacity   int
	head, tail Entry // sentinels; ascending key order between them
	size       int
}

var _ Ordered = (*listTable)(nil)

func newListTable(capacity int) *listTable {
	t := &listTable{capacity: capacity}
	t.head.next = &t.tail
	t.tail.prev = &t.head
	return t
}

func (t *listTable) Len() int { return t.size }
func (t *listTable) Cap() int { return t.capacity }

func (t *listTable) find(obj ids.ObjectID) *Entry {
	for e := t.head.next; e != &t.tail; e = e.next {
		if e.Object == obj {
			return e
		}
	}
	return nil
}

func (t *listTable) Contains(obj ids.ObjectID) bool { return t.find(obj) != nil }

func (t *listTable) Get(obj ids.ObjectID) *Entry { return t.find(obj) }

// RemoveEntry unlinks a known-present entry in O(1) via its intrusive
// links; only the paper-faithful by-object search is element-wise.
func (t *listTable) RemoveEntry(e *Entry) { t.unlink(e) }

func (t *listTable) Insert(e *Entry) *Entry {
	if t.capacity == 0 {
		return e
	}
	// Walk to the first entry not less than e and insert before it.
	at := t.head.next
	for at != &t.tail && less(at, e) {
		at = at.next
	}
	e.prev = at.prev
	e.next = at
	at.prev.next = e
	at.prev = e
	t.size++
	if t.size > t.capacity {
		return t.removeWorst()
	}
	return nil
}

// removeWorst evicts and returns the entry with the largest key (the
// paper's RemoveLastEntry), or nil when empty.
func (t *listTable) removeWorst() *Entry {
	if t.size == 0 {
		return nil
	}
	e := t.tail.prev
	t.unlink(e)
	return e
}

func (t *listTable) WorstKey() (int64, bool) {
	if t.size == 0 {
		return 0, false
	}
	return t.tail.prev.Key(), true
}

func (t *listTable) Each(fn func(*Entry) bool) {
	for e := t.head.next; e != &t.tail; e = e.next {
		if !fn(e) {
			return
		}
	}
}

func (t *listTable) Entries() []*Entry {
	out := make([]*Entry, 0, t.size)
	for e := t.head.next; e != &t.tail; e = e.next {
		out = append(out, e)
	}
	return out
}

func (t *listTable) unlink(e *Entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	t.size--
}

// check verifies that the list ascends by (Key, Object).
func (t *listTable) check() error {
	for e := t.head.next; e != &t.tail && e.next != &t.tail; e = e.next {
		if !less(e, e.next) {
			return fmt.Errorf("list table out of order at object %v", e.next.Object)
		}
	}
	return nil
}
