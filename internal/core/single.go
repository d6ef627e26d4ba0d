package core

// SingleTable is the paper's single-table (§III.3.1): a bounded LRU list
// that "simply keeps track of the current flow of requests". New and
// re-inserted entries go on top; when the table is full the bottom entry
// drops out.
//
// It is also an Ordered table whose order is recency: Insert is InsertTop
// and WorstKey is the bottom entry's key, whatever the keys are. In that
// role it is the caching table of the CacheAdmitAll ablation, the "typical
// LRU algorithm" the paper compares selective caching against (§III.4).
type SingleTable struct{ entryList }

var _ Ordered = (*SingleTable)(nil)

// NewSingleTable returns an empty single-table with the given capacity. A
// zero-capacity table rejects every insert; the constructor in Tables
// validates configuration.
func NewSingleTable(capacity int) *SingleTable {
	t := &SingleTable{}
	t.init(capacity)
	return t
}

// InsertTop places e on top of the table (the paper's InsertOnTop). If the
// table is full, the bottom entry drops out and is returned; otherwise the
// return is nil. The caller must ensure e's object is not already present.
func (t *SingleTable) InsertTop(e *Entry) (dropped *Entry) {
	return t.insert(e, t.head.next)
}

// Insert is InsertTop, the single-table's place for every entry.
func (t *SingleTable) Insert(e *Entry) (dropped *Entry) { return t.InsertTop(e) }
