package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/adc-sim/adc/internal/ids"
)

// heapTable is the default ordered-table backend: a binary max-heap over
// (Key, Object) in one array of capacity cells. The paper keeps its tables
// ordered for "the simple identification of the object with the worst
// average time and quick insertions/deletions" (§III.3.2), and the worst
// entry is all any decision reads: Tables.admits compares a candidate with
// WorstKey, and a full table's Insert evicts the worst. A heap keeps exactly
// that entry at hand — the root — and nothing else in order. This is the
// "more adapted data structure [that] should provide speed-ups" the paper
// calls for in §V.3.3.
//
// Each entry stores its cell index (Entry.heap), so RemoveEntry finds its
// cell without a search and repairs the heap in O(log n). The sort key is
// stored inline: a cell is (key, object, entry), so sifts compare
// contiguous memory and never dereference an entry. Insert captures
// (e.Key(), e.Object) into the cell; RemoveEntry checks that the cell at the
// entry's index still holds e under its current key, which is why an
// entry's key may not change while it is stored (Tables removes before
// CalcAverage, always).
//
// The heap is comparison-based over the same total order as the list
// backend, so the evicted entry and WorstKey — and with them every
// promotion and demotion decision and all experiment outputs — are those of
// the paper's linked list (asserted by the cross-backend equivalence tests,
// FuzzOrdered and the cluster determinism test). Only Each sees the storage
// order; Entries sorts a copy.
type heapTable struct {
	capacity int
	// cells is the heap: no cell orders before a child of its, so
	// cells[0] is the worst entry. len ≤ capacity = cap, and every cell
	// past len is zero.
	cells []heapCell
}

// heapCell is one stored entry with its sort position inline: key and obj
// are e.Key() and e.Object as of Insert. 24 bytes.
type heapCell struct {
	key int64
	obj ids.ObjectID
	e   *Entry
}

// before reports whether c orders before d — less, on inline keys.
func (c *heapCell) before(d *heapCell) bool {
	return c.key < d.key || (c.key == d.key && c.obj < d.obj)
}

// heapPool holds the zeroed cell arrays of released tables, keyed by
// capacity, for the next table of that capacity.
var heapPool ids.Pool[[]heapCell]

var _ Ordered = (*heapTable)(nil)

func newHeapTable(capacity int) *heapTable {
	cells, ok := heapPool.Get(capacity)
	if !ok {
		cells = make([]heapCell, 0, capacity)
	}
	return &heapTable{capacity: capacity, cells: cells}
}

func (t *heapTable) Len() int { return len(t.cells) }
func (t *heapTable) Cap() int { return t.capacity }

func (t *heapTable) Contains(obj ids.ObjectID) bool { return t.Get(obj) != nil }

// Get searches by object. The key is unknown, so this is a linear walk —
// legacy/test path only; the hot path resolves membership through the
// Tables directory.
func (t *heapTable) Get(obj ids.ObjectID) *Entry {
	for i := range t.cells {
		if t.cells[i].obj == obj {
			return t.cells[i].e
		}
	}
	return nil
}

func (t *heapTable) RemoveEntry(e *Entry) {
	i := int(e.heap)
	if i >= len(t.cells) || t.cells[i].e != e || t.cells[i].key != e.Key() {
		panic("core: entry's key changed while it was stored in an ordered table")
	}
	t.removeAt(i)
}

// removeAt deletes cell i: the last cell fills the hole and sifts up when
// it orders after the hole's parent, down otherwise.
func (t *heapTable) removeAt(i int) {
	last := len(t.cells) - 1
	c := t.cells[last]
	t.cells[last] = heapCell{}
	t.cells = t.cells[:last]
	switch {
	case i == last:
	case i > 0 && t.cells[(i-1)/2].before(&c):
		t.up(i, c)
	default:
		t.down(i, c)
	}
}

// Insert adds e below capacity by sifting it up from a new leaf; an
// entry just touched has the smallest key, so it stays there. A full
// table keeps e only if it orders before the root, which it then replaces.
func (t *heapTable) Insert(e *Entry) *Entry {
	c := heapCell{key: e.Key(), obj: e.Object, e: e}
	n := len(t.cells)
	if n < t.capacity {
		t.cells = t.cells[:n+1]
		t.up(n, c)
		return nil
	}
	if n == 0 || !c.before(&t.cells[0]) {
		return e // zero capacity, or e is the worst of the full table and itself
	}
	worst := t.cells[0].e
	t.down(0, c)
	return worst
}

// set stores c in cell i and records i in its entry.
func (t *heapTable) set(i int, c heapCell) {
	t.cells[i] = c
	c.e.heap = int32(i)
}

// up places c in the hole at cell i or above it: each ancestor that orders
// before c moves down one level.
func (t *heapTable) up(i int, c heapCell) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.cells[p].before(&c) {
			break
		}
		t.set(i, t.cells[p])
		i = p
	}
	t.set(i, c)
}

// down places c in the hole at cell i or below it: while the larger child
// orders after c, it moves up one level.
func (t *heapTable) down(i int, c heapCell) {
	n := len(t.cells)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && t.cells[child].before(&t.cells[r]) {
			child = r
		}
		if !c.before(&t.cells[child]) {
			break
		}
		t.set(i, t.cells[child])
		i = child
	}
	t.set(i, c)
}

func (t *heapTable) WorstKey() (int64, bool) {
	if len(t.cells) == 0 {
		return 0, false
	}
	return t.cells[0].key, true
}

// Each walks the cells in storage order, not in key order.
func (t *heapTable) Each(fn func(*Entry) bool) {
	for i := range t.cells {
		if !fn(t.cells[i].e) {
			return
		}
	}
}

// Entries returns the entries in ascending (Key, Object) order: a sorted
// copy of the heap.
func (t *heapTable) Entries() []*Entry {
	cells := slices.Clone(t.cells)
	slices.SortFunc(cells, func(a, b heapCell) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.obj, b.obj))
	})
	out := make([]*Entry, len(cells))
	for i := range cells {
		out[i] = cells[i].e
	}
	return out
}

// release zeroes the cells and hands the array to heapPool; the table must
// not be used afterwards.
func (t *heapTable) release() {
	if t.capacity > 0 {
		clear(t.cells)
		heapPool.Put(t.capacity, t.cells[:0])
	}
	*t = heapTable{}
}

// check verifies the heap order, that each cell's inline key and object
// still equal its entry's — a stored key that drifted from its entry is the
// one failure inline keys make possible (Entry.Avg and Entry.Last are
// exported), and it would make RemoveEntry panic — and that each entry
// records its own cell.
func (t *heapTable) check() error {
	for i := range t.cells {
		c := &t.cells[i]
		switch {
		case c.key != c.e.Key() || c.obj != c.e.Object:
			return fmt.Errorf("heap cell (%d, %v) holds entry (%d, %v): key changed while stored",
				c.key, c.obj, c.e.Key(), c.e.Object)
		case int(c.e.heap) != i:
			return fmt.Errorf("heap cell %d holds object %v, whose entry records cell %d", i, c.obj, c.e.heap)
		case i > 0 && !c.before(&t.cells[(i-1)/2]):
			p := &t.cells[(i-1)/2]
			return fmt.Errorf("heap cell (%d, %v) does not order before its parent (%d, %v)",
				c.key, c.obj, p.key, p.obj)
		}
	}
	return nil
}
