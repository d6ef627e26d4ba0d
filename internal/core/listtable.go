package core

import "fmt"

// listTable is the paper-faithful ordered-table backend: a sorted doubly
// linked list searched element-wise, the structure whose cost the paper
// measures in Fig. 15 ("Both accesses are extremely time consuming and a
// more adapted data structure should provide speed-ups", §V.3.3). Every
// operation is O(n) with pointer-chasing constants; it exists for the
// timing reproduction and the backend ablation, not for production use.
//
// It is the single-table's list with entries in ascending key order from
// top to bottom, so the bottom entry is the worst.
type listTable struct{ entryList }

var _ Ordered = (*listTable)(nil)

func newListTable(capacity int) *listTable {
	t := &listTable{}
	t.init(capacity)
	return t
}

// Insert walks to the first entry not less than e and links e above it; a
// full table then drops its bottom entry, the worst (possibly e).
func (t *listTable) Insert(e *Entry) *Entry {
	at := t.head.next
	for at != &t.tail && less(at, e) {
		at = at.next
	}
	return t.insert(e, at)
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
