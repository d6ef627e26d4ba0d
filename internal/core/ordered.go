package core

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
)

// Ordered is a bounded table that knows its worst entry — the shape of all
// three mapping tables. The multiple-table (§III.3.2) and the caching table
// (§III.3.3) order by Entry.Key, smallest first: "This order allows the
// simple identification of the object with the worst average time and quick
// insertions/deletions" (§III.3.2). The single-table (§III.3.1) orders by
// recency, newest first, and is the caching table of the admit-all
// ablation; for it "worst" is the least recently inserted entry.
//
// An entry's Key must stay constant while it is stored; callers remove an
// entry, mutate it (CalcAverage, Location), and re-insert it, exactly as
// the paper's Update_Entry does.
//
// Backends keep no object index of their own: on the hot path the owning
// Tables resolves membership through its unified directory (one probe for
// all three tables) and removes via RemoveEntry. The by-object methods
// (Contains, Get) search the backend's own structure — O(log n) is not
// possible without a key, so they are linear walks — and exist for the
// paper-faithful probe modes, which have no directory.
type Ordered interface {
	// Len returns the number of stored entries.
	Len() int
	// Cap returns the configured capacity.
	Cap() int
	// Contains reports whether obj has an entry.
	Contains(obj ids.ObjectID) bool
	// Get returns the entry for obj without removing it, or nil.
	Get(obj ids.ObjectID) *Entry
	// RemoveEntry takes a known-present entry out of the table without a
	// by-object search. The entry must currently be stored and its key
	// unchanged since Insert — the default backend finds e's cell through
	// the index e records, keeps the key Insert saw beside the pointer,
	// and panics if that cell no longer holds e under e.Key().
	// RemoveEntry first, then CalcAverage, then Insert.
	RemoveEntry(e *Entry)
	// Insert places e at its ordered position (the paper's
	// InsertOrdered; InsertOnTop on the single-table). If the table is
	// full, the worst entry — the one with the largest key, possibly e
	// itself, or the single-table's bottom — is evicted and returned;
	// otherwise the return is nil. A zero-capacity table returns e.
	Insert(e *Entry) (evicted *Entry)
	// WorstKey returns the worst entry's key — the largest key, or the
	// single-table bottom's; ok is false when the table is empty.
	WorstKey() (key int64, ok bool)
	// Each calls fn for every entry until fn returns false, in the
	// order the table stores them: top to bottom on the one list type,
	// which is ascending key on the sorted list and newest first on the
	// single-table, and heap order on the default backend. It allocates
	// nothing; the entries must not be mutated or reinserted during the
	// walk.
	Each(fn func(*Entry) bool)
	// Entries returns the entries best first: in ascending key order,
	// newest first on the single-table. The slice is
	// freshly allocated; the entries are shared. Prefer Each on any
	// path that runs repeatedly.
	Entries() []*Entry
}

// Backend selects the data structure behind an Ordered table.
type Backend int

// Supported ordered-table backends.
const (
	// BackendBTree is the default: a binary max-heap over (Key, Object)
	// whose entries record their cell, so WorstKey reads the root and
	// Insert and RemoveEntry sift in O(log n). It is the "more adapted
	// data structure [that] should provide speed-ups" the paper calls
	// for in §V.3.3. The name, and its flag value "btree", date from
	// the block B-tree it replaced; configs and the benchmark pass them.
	BackendBTree Backend = iota
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
	case BackendList:
		return "list"
	default:
		return "unknown"
	}
}

// ParseBackend converts a backend name ("btree", "list") to its
// Backend; the empty string selects the default.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "btree":
		return BackendBTree, nil
	case "list":
		return BackendList, nil
	default:
		return 0, fmt.Errorf("core: unknown backend %q (want btree or list)", name)
	}
}

// NewOrdered returns an empty ordered table with the given capacity using
// the selected backend. Capacity must be non-negative (a zero-capacity
// table rejects every insert).
func NewOrdered(capacity int, backend Backend) Ordered {
	if backend == BackendList {
		return newListTable(capacity)
	}
	return newHeapTable(capacity)
}
