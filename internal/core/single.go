package core

import "github.com/adc-sim/adc/internal/ids"

// SingleTable is the paper's single-table (§III.3.1): a bounded LRU list
// that "simply keeps track of the current flow of requests". New and
// re-inserted entries go on top; when the table is full the bottom entry
// drops out.
//
// Entries link through their intrusive prev/next fields, so insertion and
// drop-out allocate nothing. The table keeps no object index: hot-path
// membership is resolved by the owning Tables' unified directory (one probe
// shared with the ordered tables) followed by an O(1) RemoveEntry.
// The by-object methods here search element-wise, exactly the behaviour
// the paper's own implementation "requires … within the list" (§V.3.3);
// they serve the Fig. 15 ablation path and direct unit tests.
type SingleTable struct {
	capacity int
	// head/tail sentinels; head.next is the top (most recent).
	head, tail Entry
	size       int
}

// NewSingleTable returns an empty single-table with the given capacity.
// Capacity must be positive; the constructor in Tables validates
// configuration.
func NewSingleTable(capacity int) *SingleTable {
	t := &SingleTable{capacity: capacity}
	t.head.next = &t.tail
	t.tail.prev = &t.head
	return t
}

// Len returns the number of stored entries.
func (t *SingleTable) Len() int { return t.size }

// Cap returns the configured capacity.
func (t *SingleTable) Cap() int { return t.capacity }

// Contains reports whether obj has an entry.
func (t *SingleTable) Contains(obj ids.ObjectID) bool {
	return t.find(obj) != nil
}

// Get returns the entry for obj without removing it, or nil. It does not
// touch LRU order: in the paper only (re-)insertion moves an entry to the
// top; Forward_Addr lookups leave the order untouched.
func (t *SingleTable) Get(obj ids.ObjectID) *Entry {
	return t.find(obj)
}

// Remove takes the entry for obj out of the table, returning nil if absent.
func (t *SingleTable) Remove(obj ids.ObjectID) *Entry {
	e := t.find(obj)
	if e == nil {
		return nil
	}
	t.unlink(e)
	return e
}

// RemoveEntry unlinks a known-present entry in O(1).
func (t *SingleTable) RemoveEntry(e *Entry) { t.unlink(e) }

// InsertTop places e on top of the table (the paper's InsertOnTop). If the
// table is full, the bottom entry drops out and is returned; otherwise the
// return is nil. The caller must ensure e's object is not already present.
func (t *SingleTable) InsertTop(e *Entry) (dropped *Entry) {
	if t.size >= t.capacity {
		dropped = t.tail.prev
		t.unlink(dropped)
	}
	e.prev = &t.head
	e.next = t.head.next
	t.head.next.prev = e
	t.head.next = e
	t.size++
	return dropped
}

// Each calls fn for every entry from top (most recent) to bottom until fn
// returns false. It allocates nothing; the entries must not be mutated or
// reinserted during the walk.
func (t *SingleTable) Each(fn func(*Entry) bool) {
	for e := t.head.next; e != &t.tail; e = e.next {
		if !fn(e) {
			return
		}
	}
}

// Entries returns the entries from top (most recent) to bottom.
func (t *SingleTable) Entries() []*Entry {
	out := make([]*Entry, 0, t.size)
	for e := t.head.next; e != &t.tail; e = e.next {
		out = append(out, e)
	}
	return out
}

func (t *SingleTable) find(obj ids.ObjectID) *Entry {
	for e := t.head.next; e != &t.tail; e = e.next {
		if e.Object == obj {
			return e
		}
	}
	return nil
}

func (t *SingleTable) unlink(e *Entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	t.size--
}
