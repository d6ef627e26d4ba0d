package core

import (
	"sort"

	"github.com/adc-sim/adc/internal/ids"
)

// Ordered is a bounded table kept in ascending order of Entry.Key — the
// shared shape of the multiple-table (§III.3.2) and the caching table
// (§III.3.3). "This order allows the simple identification of the object
// with the worst average time and quick insertions/deletions" (§III.3.2).
//
// An entry's Key must stay constant while it is stored; callers remove an
// entry, mutate it (CalcAverage, Location), and re-insert it, exactly as
// the paper's Update_Entry does.
//
// Backends keep no object index of their own: on the hot path the owning
// Tables resolves membership through its unified directory (one probe for
// all three tables) and removes via RemoveEntry. The by-object methods
// (Contains, Get, Remove) search the backend's own structure — O(log n) is
// not possible without a key, so they are linear walks — and exist for the
// paper-faithful ablation path and for direct unit-testing of backends.
type Ordered interface {
	// Len returns the number of stored entries.
	Len() int
	// Cap returns the configured capacity.
	Cap() int
	// Contains reports whether obj has an entry.
	Contains(obj ids.ObjectID) bool
	// Get returns the entry for obj without removing it, or nil.
	Get(obj ids.ObjectID) *Entry
	// Remove takes the entry for obj out of the table; nil if absent.
	Remove(obj ids.ObjectID) *Entry
	// RemoveEntry takes a known-present entry out of the table without a
	// by-object search: the backend locates it by its (Key, Object)
	// position. The entry must currently be stored and its key unchanged
	// since Insert — the default backend keeps the key Insert saw beside
	// the pointer and panics if (e.Key(), e.Object) no longer leads to
	// e's own cell. Remove first, then CalcAverage, then Insert.
	RemoveEntry(e *Entry)
	// Insert places e at its ordered position (the paper's
	// InsertOrdered). If the table is full, the worst entry — the one
	// with the largest key, possibly e itself — is evicted and
	// returned; otherwise the return is nil.
	Insert(e *Entry) (evicted *Entry)
	// RemoveWorst evicts and returns the entry with the largest key
	// (the paper's RemoveLastEntry), or nil when empty.
	RemoveWorst() *Entry
	// WorstKey returns the largest key in the table; ok is false when
	// the table is empty.
	WorstKey() (key int64, ok bool)
	// Each calls fn for every entry in ascending key order until fn
	// returns false. It allocates nothing; the entries must not be
	// mutated or reinserted during the walk.
	Each(fn func(*Entry) bool)
	// Entries returns the entries in ascending key order. The slice is
	// freshly allocated; the entries are shared. Prefer Each on any
	// path that runs repeatedly.
	Entries() []*Entry
}

// Backend selects the data structure behind an Ordered table.
type Backend int

// Supported ordered-table backends.
const (
	// BackendBTree is the default: a bounded B-tree-like structure of
	// small sorted blocks keyed by (Key, Object). O(log n) search with
	// block-local memmoves, so reference-size tables (20k entries, §V.2)
	// never shift their whole backing array. It is the "more adapted
	// data structure [that] should provide speed-ups" the paper calls
	// for in §V.3.3.
	BackendBTree Backend = iota
	// BackendSlice is a sorted slice with binary search — the paper's
	// own structure ("insertion and deletion at the ordered
	// multiple-table is mostly operated by binary search algorithms",
	// §V.3.3). O(log n) search, O(n) insert/delete due to shifting.
	BackendSlice
	// BackendList is the fully paper-faithful sorted linked list with
	// element-wise search, used by the Fig. 15 timing reproduction.
	// O(n) everything; do not use outside that experiment.
	BackendList
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendBTree:
		return "btree"
	case BackendSlice:
		return "slice"
	case BackendList:
		return "list"
	default:
		return "unknown"
	}
}

// ParseBackend converts a backend name ("btree", "slice", "list") to its
// Backend; the empty string selects the default.
func ParseBackend(name string) (Backend, bool) {
	switch name {
	case "", "btree":
		return BackendBTree, true
	case "slice":
		return BackendSlice, true
	case "list":
		return BackendList, true
	default:
		return 0, false
	}
}

// NewOrdered returns an empty ordered table with the given capacity using
// the selected backend. Capacity must be non-negative (a zero-capacity
// table rejects every insert).
func NewOrdered(capacity int, backend Backend) Ordered {
	switch backend {
	case BackendSlice:
		return newSliceTable(capacity)
	case BackendList:
		return newListTable(capacity)
	default:
		return newBTreeTable(capacity)
	}
}

// sliceTable is the sorted-slice backend.
type sliceTable struct {
	capacity int
	entries  []*Entry // ascending by (Key, Object)
}

var _ Ordered = (*sliceTable)(nil)

func newSliceTable(capacity int) *sliceTable {
	return &sliceTable{
		capacity: capacity,
		entries:  make([]*Entry, 0, capacity),
	}
}

func (t *sliceTable) Len() int { return len(t.entries) }
func (t *sliceTable) Cap() int { return t.capacity }

// scan finds the slice index of obj's entry, or -1. The key is unknown, so
// this is a linear walk — legacy/test path only (see the Ordered comment).
func (t *sliceTable) scan(obj ids.ObjectID) int {
	for i, e := range t.entries {
		if e.Object == obj {
			return i
		}
	}
	return -1
}

func (t *sliceTable) Contains(obj ids.ObjectID) bool { return t.scan(obj) >= 0 }

func (t *sliceTable) Get(obj ids.ObjectID) *Entry {
	if i := t.scan(obj); i >= 0 {
		return t.entries[i]
	}
	return nil
}

// position finds the index of e in the slice via one binary search on
// (Key, Object). e must be present.
func (t *sliceTable) position(e *Entry) int {
	i := sort.Search(len(t.entries), func(i int) bool {
		return !less(t.entries[i], e)
	})
	// i now points at the first entry not less than e, which is e itself
	// because (Key, Object) is unique per table.
	return i
}

func (t *sliceTable) Remove(obj ids.ObjectID) *Entry {
	i := t.scan(obj)
	if i < 0 {
		return nil
	}
	e := t.entries[i]
	t.removeAt(i)
	return e
}

func (t *sliceTable) RemoveEntry(e *Entry) { t.removeAt(t.position(e)) }

func (t *sliceTable) removeAt(i int) {
	copy(t.entries[i:], t.entries[i+1:])
	t.entries[len(t.entries)-1] = nil
	t.entries = t.entries[:len(t.entries)-1]
}

func (t *sliceTable) Insert(e *Entry) *Entry {
	if t.capacity == 0 {
		return e
	}
	i := sort.Search(len(t.entries), func(i int) bool {
		return !less(t.entries[i], e)
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	if len(t.entries) > t.capacity {
		return t.RemoveWorst()
	}
	return nil
}

func (t *sliceTable) RemoveWorst() *Entry {
	if len(t.entries) == 0 {
		return nil
	}
	e := t.entries[len(t.entries)-1]
	t.entries[len(t.entries)-1] = nil
	t.entries = t.entries[:len(t.entries)-1]
	return e
}

func (t *sliceTable) WorstKey() (int64, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	return t.entries[len(t.entries)-1].Key(), true
}

func (t *sliceTable) Each(fn func(*Entry) bool) {
	for _, e := range t.entries {
		if !fn(e) {
			return
		}
	}
}

func (t *sliceTable) Entries() []*Entry {
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out
}
