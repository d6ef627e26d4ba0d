package core

import "github.com/adc-sim/adc/internal/ids"

// entryList is the bounded intrusive list under both list-shaped tables:
// the single-table, which links new entries on top, and the paper-faithful
// sorted-list backend, which links them at their key's position. Entries
// link through their own prev/next fields between two sentinels, so linking
// and unlinking allocate nothing, and either table drops its bottom entry —
// the least recently inserted on the single-table, the largest key on the
// sorted list — when an insert overfills it.
//
// The list keeps no object index: hot-path membership is resolved by the
// owning Tables' directory, followed by an O(1) RemoveEntry. The by-object
// methods walk the list element-wise, exactly the behaviour the paper's own
// implementation "requires … within the list" (§V.3.3); they serve the
// Fig. 15 probe mode and direct unit tests.
type entryList struct {
	capacity int
	// head/tail sentinels; head.next is the top, tail.prev the bottom.
	head, tail Entry
	size       int
}

// init empties l and sets its capacity; a list is unusable before init,
// since its sentinels point at each other.
func (l *entryList) init(capacity int) {
	l.capacity = capacity
	l.head.next = &l.tail
	l.tail.prev = &l.head
}

// Len returns the number of stored entries.
func (l *entryList) Len() int { return l.size }

// Cap returns the configured capacity.
func (l *entryList) Cap() int { return l.capacity }

// Contains reports whether obj has an entry.
func (l *entryList) Contains(obj ids.ObjectID) bool { return l.Get(obj) != nil }

// Get returns the entry for obj without removing it, or nil. It does not
// touch the order: on the single-table only (re-)insertion moves an entry
// to the top; Forward_Addr lookups leave the order untouched.
func (l *entryList) Get(obj ids.ObjectID) *Entry {
	for e := l.head.next; e != &l.tail; e = e.next {
		if e.Object == obj {
			return e
		}
	}
	return nil
}

// RemoveEntry unlinks a known-present entry in O(1).
func (l *entryList) RemoveEntry(e *Entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.size--
}

// WorstKey returns the bottom entry's key; ok is false when the list is
// empty.
func (l *entryList) WorstKey() (int64, bool) {
	if l.size == 0 {
		return 0, false
	}
	return l.tail.prev.Key(), true
}

// Each calls fn for every entry from top to bottom until fn returns false.
func (l *entryList) Each(fn func(*Entry) bool) {
	for e := l.head.next; e != &l.tail; e = e.next {
		if !fn(e) {
			return
		}
	}
}

// Entries returns the entries from top to bottom.
func (l *entryList) Entries() []*Entry {
	out := make([]*Entry, 0, l.size)
	for e := l.head.next; e != &l.tail; e = e.next {
		out = append(out, e)
	}
	return out
}

// insert links e just above at and, when that overfills the list, unlinks
// and returns the bottom entry: e itself in a zero-capacity list, which
// rejects every insert.
func (l *entryList) insert(e, at *Entry) (dropped *Entry) {
	e.prev = at.prev
	e.next = at
	at.prev.next = e
	at.prev = e
	l.size++
	if l.size > l.capacity {
		return l.removeWorst()
	}
	return nil
}

// removeWorst unlinks and returns the bottom entry, or nil when the list is
// empty.
func (l *entryList) removeWorst() *Entry {
	if l.size == 0 {
		return nil
	}
	e := l.tail.prev
	l.RemoveEntry(e)
	return e
}
